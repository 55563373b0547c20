package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/workload"
)

// liveReg, when set via Instrument, is attached to every engine and
// database the experiment builders construct, so `mostbench -http`
// serves live metrics at /obs while the tables regenerate.  ObsBench
// itself does not use it: its whole point is to control attachment.
var liveReg atomic.Pointer[obs.Registry]

// Instrument attaches reg to the engines and databases built by
// subsequent experiment runs.  Pass nil to detach.
func Instrument(reg *obs.Registry) { liveReg.Store(reg) }

// newEngine builds an engine for an experiment, attaching the live
// registry when one is set.
func newEngine(db *most.Database) *query.Engine {
	e := query.NewEngine(db)
	if r := liveReg.Load(); r != nil {
		db.Instrument(r)
		e.Instrument(r)
	}
	return e
}

// ObsResult is one row of the observability-overhead benchmark: one
// instantaneous INSIDE query over an n-vehicle fleet, evaluated with
// instrumentation detached and attached.
type ObsResult struct {
	Objects     int     `json:"objects"`
	DisabledNs  int64   `json:"disabled_ns"`
	EnabledNs   int64   `json:"enabled_ns"`
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsReport is the payload mostbench -obs writes to BENCH_obs.json.  The
// embedded Snapshot comes from a small fully-instrumented scenario that
// exercises all three query types, so the file doubles as a schema example
// of the /obs endpoint.
type ObsReport struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []ObsResult  `json:"results"`
	Snapshot   obs.Snapshot `json:"snapshot"`
}

// ObsBench measures the instrumentation overhead of the observability layer
// on that query.  Each fleet size is timed with the engine and database
// uninstrumented, then again with a live registry attached; the claim
// locked in by the driver is that the enabled run costs at most a few
// percent (the hooks are one atomic load plus a nil branch
// when disabled, and lock-free counter/histogram updates when enabled).
func ObsBench(quick bool) *ObsReport {
	sizes := []int{1000, 10000}
	reps := 5
	if quick {
		sizes = []int{1000}
		reps = 3
	}
	rep := &ObsReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, n := range sizes {
		db, err := workload.Fleet(workload.FleetSpec{
			N:        n,
			Region:   geom.Rect{Max: geom.Point{X: 1000, Y: 1000}},
			MaxSpeed: 3,
			Seed:     7,
		})
		if err != nil {
			panic(err)
		}
		e := query.NewEngine(db)
		q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`)
		opts := query.Options{
			Horizon: 200,
			Regions: map[string]geom.Polygon{"P": geom.RectPolygon(200, 200, 600, 600)},
		}
		eval := func() {
			if _, err := e.InstantaneousRelation(q, opts); err != nil {
				panic(err)
			}
		}
		reg := obs.New()
		// Interleave detached and attached measurements (min of reps each)
		// so cache and allocator warm-up is shared fairly between the two.
		runtime.GC()
		eval() // warm caches
		var disabled, enabled time.Duration
		for i := 0; i < reps; i++ {
			e.Instrument(nil)
			db.Instrument(nil)
			if d := timeOnce(eval); disabled == 0 || d < disabled {
				disabled = d
			}
			e.Instrument(reg)
			db.Instrument(reg)
			if d := timeOnce(eval); enabled == 0 || d < enabled {
				enabled = d
			}
		}
		e.Instrument(nil)
		db.Instrument(nil)
		rep.Results = append(rep.Results, ObsResult{
			Objects:     n,
			DisabledNs:  disabled.Nanoseconds(),
			EnabledNs:   enabled.Nanoseconds(),
			OverheadPct: (float64(enabled) - float64(disabled)) / float64(disabled) * 100,
		})
	}
	rep.Snapshot = obsDemoSnapshot()
	return rep
}

// timeOnce times a single run.  ObsBench keeps the minimum over reps runs:
// minimum-of-N is the standard estimator for an overhead comparison, since
// scheduler noise only ever adds time.
func timeOnce(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// obsDemoSnapshot runs a small fully-instrumented scenario — instantaneous
// text query answered from the database's grid index, continuous query reevaluated by a motion
// update, persistent query over the logged history — and returns the
// resulting registry snapshot.  All three query-type span trees appear in
// Traces.
func obsDemoSnapshot() obs.Snapshot {
	db, err := workload.Fleet(workload.FleetSpec{
		N:        50,
		Region:   geom.Rect{Max: geom.Point{X: 1000, Y: 1000}},
		MaxSpeed: 3,
		Seed:     11,
	})
	if err != nil {
		panic(err)
	}
	reg := obs.New()
	db.Instrument(reg)
	e := query.NewEngine(db)
	e.Instrument(reg)

	opts := query.Options{
		Horizon: 100,
		Regions: map[string]geom.Polygon{"P": geom.RectPolygon(200, 200, 600, 600)},
	}
	// The first query activates the class's grid index; the second probes it.
	for range 2 {
		if _, err := e.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, opts); err != nil {
			panic(err)
		}
	}
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`)
	cq, err := e.Continuous(q, opts)
	if err != nil {
		panic(err)
	}
	pq, err := e.Persistent(q, opts)
	if err != nil {
		panic(err)
	}
	// Trigger reevaluation of both registered queries with a real motion
	// update, then advance the clock so the persistent query replays a
	// non-empty logged history.
	db.Tick()
	if err := db.SetMotion(db.Objects("")[0].ID(), geom.Vector{X: 2, Y: 1}); err != nil {
		panic(err)
	}
	if _, err := cq.Current(db.Now()); err != nil {
		panic(err)
	}
	if _, err := pq.Current(); err != nil {
		panic(err)
	}
	cq.Cancel()
	pq.Cancel()
	return reg.Snapshot()
}

// Table renders the report in the experiment-table format.
func (r *ObsReport) Table() *Table {
	t := &Table{
		ID:      "OBS",
		Title:   "observability instrumentation overhead (enabled vs detached)",
		Claim:   "metrics and tracing hooks cost at most a few percent on the parallel benchmark; disabled hooks are one atomic load and a nil branch",
		Columns: []string{"objects", "disabled", "enabled", "overhead"},
	}
	for _, res := range r.Results {
		t.AddRow(
			itoa(res.Objects),
			ns(time.Duration(res.DisabledNs)),
			ns(time.Duration(res.EnabledNs)),
			f2(res.OverheadPct)+"%",
		)
	}
	t.Notes = append(t.Notes,
		"snapshot embedded in BENCH_obs.json shows the /obs schema with all three query-type traces")
	return t
}
