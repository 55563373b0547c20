package most_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

var gridClass = most.MustClass("Cars", true, most.AttrDef{Name: "FUEL", Kind: most.Dynamic})

// randomPosition is a piecewise-linear motion starting at tick now
// somewhere in the 1000x1000 square: up to three pieces per coordinate,
// now and then a parked object.
func randomPosition(rng *rand.Rand, now temporal.Tick) motion.Position {
	coord := func(base float64) motion.DynamicAttr {
		if rng.Intn(6) == 0 {
			return motion.DynamicAttr{Value: base, UpdateTime: now}
		}
		var pieces []motion.Piece
		start := 0.0
		for i := 0; i <= rng.Intn(3); i++ {
			pieces = append(pieces, motion.Piece{Start: start, Slope: (rng.Float64() - 0.5) * 30})
			start += 1 + float64(rng.Intn(15))
		}
		return motion.DynamicAttr{Value: base, UpdateTime: now, Function: motion.MustFunc(pieces...)}
	}
	return motion.Position{X: coord(rng.Float64() * 1000), Y: coord(rng.Float64() * 1000)}
}

func newGridCar(id most.ObjectID, pos motion.Position) *most.Object {
	o, err := most.NewObject(id, gridClass)
	if err == nil {
		o, err = o.WithPosition(pos)
	}
	if err != nil {
		panic(err)
	}
	return o
}

// exactInside returns the objects of s's Cars that are inside r at some
// tick of w, by the evaluator over an unindexed copy of s's objects.
func exactInside(s *most.Snapshot, r geom.Rect, w temporal.Interval) (map[most.ObjectID]bool, error) {
	ctx := &eval.Context{
		Now:     w.Start,
		Horizon: w.End - w.Start,
		Objects: most.NewSnapshot(s.Now(), s.Objects("")...),
		Regions: map[string]geom.Polygon{"R": geom.RectPolygon(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)},
	}
	q := ftl.MustParse(`RETRIEVE o FROM Cars o WHERE INSIDE(o, R)`)
	if err := ctx.BindDomains(q); err != nil {
		return nil, err
	}
	rel, err := ctx.EvalFormula(q.Where)
	if err != nil {
		return nil, err
	}
	in := map[most.ObjectID]bool{}
	for _, tu := range rel.Tuples() {
		in[tu.Vals[0].Obj] = true
	}
	return in, nil
}

// checkCandidates probes s with a random rectangle and window and, when
// the probe is covered, checks that its candidates are sorted, distinct,
// objects of s, and a superset of the exact answer.  It reports whether
// the probe was covered.
func checkCandidates(rng *rand.Rand, s *most.Snapshot, maxWindow int) (bool, error) {
	x, y := rng.Float64()*1000, rng.Float64()*1000
	r := geom.Rect{Min: geom.Point{X: x, Y: y}, Max: geom.Point{X: x + rng.Float64()*300, Y: y + rng.Float64()*300}}
	// Half the windows reach as far as the probe may: the last slice of
	// the coverage is where an extension that falls short shows.
	n := maxWindow
	if rng.Intn(2) == 0 {
		n = rng.Intn(maxWindow + 1)
	}
	w := temporal.Interval{Start: s.Now(), End: s.Now().Add(temporal.Tick(n))}
	ids, covered := s.Candidates("Cars", r, w)
	if !covered {
		return false, nil
	}
	if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
		return true, fmt.Errorf("candidates not sorted and distinct: %v", ids)
	}
	cand := map[most.ObjectID]bool{}
	for _, id := range ids {
		if _, ok := s.GetIn("Cars", id); !ok {
			return true, fmt.Errorf("candidate %s is not in the snapshot (version %d)", id, s.Version())
		}
		cand[id] = true
	}
	exact, err := exactInside(s, r, w)
	if err != nil {
		return true, err
	}
	for id := range exact {
		if !cand[id] {
			return true, fmt.Errorf("object %s is inside %v during %v but no candidate (version %d, %d candidates)",
				id, r, w, s.Version(), len(ids))
		}
	}
	return true, nil
}

// TestGridCandidatesSuperset drives seeded random histories — piecewise
// motions, inserts, deletes, re-inserts of deleted ids, batches, clock
// advances across coverage expiry, probes that activate the index mid-stream and widen its
// coverage — and checks every covered probe against the exact answer.
func TestGridCandidatesSuperset(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := most.NewDatabase()
			reg := obs.New()
			db.Instrument(reg)
			if err := db.DefineClass(gridClass); err != nil {
				t.Fatal(err)
			}
			next := 0
			var live, dead []most.ObjectID
			insert := func(tx *most.Tx) error {
				id := most.ObjectID(fmt.Sprintf("c%04d", next))
				if len(dead) > 0 && rng.Intn(3) == 0 { // bring a deleted id back
					id, dead = dead[len(dead)-1], dead[:len(dead)-1]
				} else {
					next++
				}
				live = append(live, id)
				return tx.Insert(newGridCar(id, randomPosition(rng, db.Now())), nil)
			}
			for range 150 {
				if err := db.Batch(insert); err != nil {
					t.Fatal(err)
				}
			}
			covered := 0
			activateAt := 20 + rng.Intn(40) // steps before the first probe
			for step := 0; step < 400; step++ {
				err := db.Batch(func(tx *most.Tx) error {
					for range 1 + rng.Intn(4) {
						switch op := rng.Intn(10); {
						case op < 2:
							if err := insert(tx); err != nil {
								return err
							}
						case op < 3 && len(live) > 0:
							i := rng.Intn(len(live))
							if err := tx.Delete(live[i], nil); err != nil {
								return err
							}
							dead = append(dead, live[i])
							live = slices.Delete(live, i, i+1)
						case len(live) > 0:
							v := geom.Vector{X: (rng.Float64() - 0.5) * 40, Y: (rng.Float64() - 0.5) * 40}
							if err := tx.SetMotion(live[rng.Intn(len(live))], v, nil); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					db.Advance(temporal.Tick(1 + rng.Intn(3)))
				}
				if step >= activateAt {
					// Windows grow over the run, so later probes widen
					// the coverage.
					for range 3 {
						ok, err := checkCandidates(rng, db.Snapshot(), 5+step/20)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if ok {
							covered++
						}
					}
				}
			}
			c := reg.Snapshot().Counters
			if covered < 100 || c["most.index.activations"] != 1 || c["most.index.extensions"] == 0 {
				t.Fatalf("covered probes %d, activations %d, extensions %d: the run did not exercise the index",
					covered, c["most.index.activations"], c["most.index.extensions"])
			}
		})
	}
}

// TestGridSnapshotIsOneCut races committers — motion updates, inserts,
// deletes and clock advances — against readers that probe every snapshot
// they take: a snapshot's candidates must always be objects of the same
// snapshot and cover its exact answer, whatever commits in between.
func TestGridSnapshotIsOneCut(t *testing.T) {
	db := most.NewDatabase()
	if err := db.DefineClass(gridClass); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := range 100 {
		if err := db.Insert(newGridCar(most.ObjectID(fmt.Sprintf("c%04d", i)), randomPosition(rng, 0))); err != nil {
			t.Fatal(err)
		}
	}
	// Activate the index.
	db.Snapshot().Candidates("Cars", geom.Rect{}, temporal.Interval{End: 10})

	const writers, readers, rounds = 3, 2, 150
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := range rounds {
				id := most.ObjectID(fmt.Sprintf("w%d-%04d", w, i))
				_ = db.Insert(newGridCar(id, randomPosition(rng, db.Now())))
				_ = db.SetMotion(most.ObjectID(fmt.Sprintf("c%04d", rng.Intn(100))), geom.Vector{X: rng.Float64() * 20})
				if i%4 == 0 {
					_ = db.Delete(most.ObjectID(fmt.Sprintf("w%d-%04d", w, i/2)))
				}
				if i%10 == 0 {
					db.Advance(1)
				}
			}
		}()
	}
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for range rounds / 3 {
				if _, err := checkCandidates(rng, db.Snapshot(), 10); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
