package experiments

import (
	"runtime"
	"sort"
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
// on that query.  Each fleet size is timed in pairs of samples, one with
// the engine and database uninstrumented and one with a live registry
// attached; the claim it checks is that the enabled run costs at most a
// few percent (the hooks are one atomic load plus a nil branch when
// disabled, and lock-free counter/histogram updates when enabled).
//
// A single evaluation takes a few milliseconds on the small fleet, too
// short to time against scheduler noise, so each sample is a loop of
// evaluations lasting at least sampleFloor, and at least sampleRuns
// evaluations on the large fleet, whose single evaluation lasts about as
// long as the floor.  Each sample starts from a collected heap.  The two
// samples of a pair run back to back, in alternating order from pair to
// pair so drift falls on both arms alike, and the reported overhead is
// the median of the per-pair overheads.
func ObsBench(quick bool) *ObsReport {
	sizes := []int{1000, 10000}
	pairs := 9
	if quick {
		sizes = []int{1000}
		pairs = 5
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
		sample := func(attach *obs.Registry) float64 {
			e.Instrument(attach)
			db.Instrument(attach)
			runtime.GC()
			return perEval(eval)
		}
		runtime.GC()
		eval() // warm caches
		var disabled, enabled, overhead []float64
		for i := 0; i < pairs; i++ {
			var d, en float64
			if i%2 == 0 {
				d, en = sample(nil), sample(reg)
			} else {
				en, d = sample(reg), sample(nil)
			}
			disabled, enabled = append(disabled, d), append(enabled, en)
			overhead = append(overhead, (en-d)/d*100)
		}
		e.Instrument(nil)
		db.Instrument(nil)
		rep.Results = append(rep.Results, ObsResult{
			Objects:     n,
			DisabledNs:  int64(median(disabled)),
			EnabledNs:   int64(median(enabled)),
			OverheadPct: median(overhead),
		})
	}
	rep.Snapshot = obsDemoSnapshot()
	return rep
}

// One ObsBench sample is a loop of at least sampleRuns runs lasting at
// least sampleFloor.
const (
	sampleFloor = 20 * time.Millisecond
	sampleRuns  = 5
)

// perEval runs fn as one sample and returns the mean nanoseconds per run.
func perEval(fn func()) float64 {
	start := time.Now()
	runs := 0
	for runs < sampleRuns || time.Since(start) < sampleFloor {
		fn()
		runs++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).  xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
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
