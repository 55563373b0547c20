package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/workload"
)

// DeltaCase is one row of the delta-maintenance benchmark: the same
// decomposable continuous query over an n-vehicle fleet, maintained under
// the same motion-update sequence with per-object delta patches versus
// a full evaluation of the query after every update.
type DeltaCase struct {
	Objects int     `json:"objects"`
	Updates int     `json:"updates"`
	FullNs  int64   `json:"full_ns_per_update"`
	DeltaNs int64   `json:"delta_ns_per_update"`
	Speedup float64 `json:"speedup"`
}

// DeltaReport is the payload mostbench -delta writes to BENCH_delta.json.
type DeltaReport struct {
	Query   string      `json:"query"`
	Results []DeltaCase `json:"results"`
}

// DeltaBench times continuous-query maintenance per motion update.  A full
// reevaluation rejoins the whole fleet on every update, so its cost grows
// with the fleet; a delta patch recomputes only the tuples binding the
// updated object, so its cost stays flat and the speedup grows linearly
// with fleet size.  Both modes apply the identical seeded update sequence
// and converge to the identical answer (the differential oracle locks that
// in); only wall-clock time differs.
func DeltaBench(quick bool) *DeltaReport {
	const src = `RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`
	sizes := []int{1000, 10000}
	updates := 40
	if quick {
		sizes = []int{1000}
		updates = 15
	}
	q := ftl.MustParse(src)
	opts := query.Options{
		Horizon: 200,
		Regions: map[string]geom.Polygon{"P": geom.RectPolygon(200, 200, 600, 600)},
	}
	rep := &DeltaReport{Query: src}
	for _, n := range sizes {
		// One seeded update sequence per size, shared by both modes.
		rng := rand.New(rand.NewSource(int64(n) + 17))
		type upd struct {
			id most.ObjectID
			v  geom.Vector
		}
		seq := make([]upd, updates)
		for i := range seq {
			seq[i] = upd{
				id: most.ObjectID(fmt.Sprintf("car-%05d", rng.Intn(n))),
				v:  geom.Vector{X: (rng.Float64() - 0.5) * 6, Y: (rng.Float64() - 0.5) * 6},
			}
		}
		// The delta arm maintains a registered continuous query; the full
		// arm registers nothing and evaluates the same query from scratch
		// (Engine.InstantaneousRelation) after each update.
		run := func(delta bool) time.Duration {
			db, err := workload.Fleet(workload.FleetSpec{
				N:        n,
				Region:   geom.Rect{Max: geom.Point{X: 1000, Y: 1000}},
				MaxSpeed: 3,
				Seed:     11,
			})
			if err != nil {
				panic(err)
			}
			e := newEngine(db)
			if delta {
				cq, err := e.Continuous(q, opts)
				if err != nil {
					panic(err)
				}
				defer cq.Cancel()
			}
			per := timeIt(1, func() {
				for _, u := range seq {
					if err := db.SetMotion(u.id, u.v); err != nil {
						panic(err)
					}
					if !delta {
						if _, err := e.InstantaneousRelation(q, opts); err != nil {
							panic(err)
						}
					}
				}
			})
			return per / time.Duration(updates)
		}
		full := run(false)
		delta := run(true)
		rep.Results = append(rep.Results, DeltaCase{
			Objects: n,
			Updates: updates,
			FullNs:  full.Nanoseconds(),
			DeltaNs: delta.Nanoseconds(),
			Speedup: float64(full) / float64(delta),
		})
	}
	return rep
}

// Table renders the report in the experiment-table format.
func (r *DeltaReport) Table() *Table {
	t := &Table{
		ID:      "DELTA",
		Title:   "incremental delta maintenance vs full reevaluation",
		Claim:   "an update to object o need only recompute the instantiations binding o, so per-update maintenance cost is independent of fleet size",
		Columns: []string{"objects", "updates", "full/update", "delta/update", "speedup"},
	}
	for _, res := range r.Results {
		t.AddRow(
			itoa(res.Objects),
			itoa(res.Updates),
			ns(time.Duration(res.FullNs)),
			ns(time.Duration(res.DeltaNs)),
			f2(res.Speedup)+"x",
		)
	}
	return t
}
