package query

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// TestBatchOneRoundPerPlan commits each round's updates as one
// Database.Batch and checks that every plan the batch reaches runs one
// maintenance round for it: one install (Gen +1) whose answer equals a
// from-scratch evaluation.  A deltable batch patches once, over the
// distinct objects it touches (an object updated twice is recomputed
// once); a batch holding a non-deltable update runs one full evaluation
// while the fallback counter still counts that update; a persistent plan
// patches like a continuous one, checked against naivePersistent.
func TestBatchOneRoundPerPlan(t *testing.T) {
	const (
		rounds  = 4
		horizon = temporal.Tick(30)
	)
	depots := most.MustClass("Depots", true)
	cases := []struct {
		name       string
		src        string
		persistent bool
		depotMove  bool // the batch also moves a depot: not deltable
		// counter deltas per batch, under the plan kind's prefix
		delta, full, fallback int64
	}{
		{name: "deltable", src: `RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)`,
			delta: 3},
		{name: "non-deltable", src: `RETRIEVE o FROM Vehicles o, Depots d WHERE EVENTUALLY WITHIN 5 (INSIDE(o, P) AND DIST(o, d) <= 50)`,
			depotMove: true, full: 1, fallback: 1},
		{name: "persistent", src: `RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)`,
			persistent: true, delta: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, cls := testDB(t)
			if err := db.DefineClass(depots); err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			e := NewEngine(db)
			e.Instrument(reg)
			for i := 0; i < 3*rounds; i++ {
				addCar(t, db, cls, most.ObjectID(fmt.Sprintf("car-%02d", i)), geom.Point{X: 5, Y: float64(i%5) - 2}, geom.Vector{})
			}
			addCar(t, db, depots, "depot", geom.Point{X: 15}, geom.Vector{})
			q := ftl.MustParse(tc.src)
			opts := Options{Horizon: horizon, Regions: regionP()}

			var h *Continuous
			prefix, anchor := "query.continuous", temporal.Tick(0)
			if tc.persistent {
				pq, err := e.Persistent(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer pq.Cancel()
				h, prefix, anchor = pq.cq, "query.persistent", pq.Anchor()
			} else {
				cq, err := e.Continuous(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer cq.Cancel()
				h = cq
			}
			installs := 0
			if err := h.SubscribeInstalls(func(Install) { installs++ }); err != nil {
				t.Fatal(err)
			}

			for r := 0; r < rounds; r++ {
				db.Advance(1)
				in0, err := h.Installed()
				if err != nil {
					t.Fatal(err)
				}
				before, installs0 := reg.Snapshot().Counters, installs
				// Three cars head for P; the first is updated twice.
				car := func(k int) most.ObjectID { return most.ObjectID(fmt.Sprintf("car-%02d", 3*r+k)) }
				if err := db.Batch(func(tx *most.Tx) error {
					for _, u := range []struct {
						id most.ObjectID
						v  geom.Vector
					}{
						{car(0), geom.Vector{X: 2, Y: 1}},
						{car(1), geom.Vector{X: 2}},
						{car(0), geom.Vector{X: 2}},
						{car(2), geom.Vector{X: 2}},
					} {
						if err := tx.SetMotion(u.id, u.v, nil); err != nil {
							return err
						}
					}
					if tc.depotMove {
						return tx.SetMotion("depot", geom.Vector{Y: float64(r%2) - 0.5}, nil)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}

				after := reg.Snapshot().Counters
				moved := func(name string) int64 { return after[prefix+name] - before[prefix+name] }
				for _, c := range []struct {
					name string
					want int64
				}{{".delta", tc.delta}, {".full", tc.full}, {".fallback", tc.fallback}} {
					if got := moved(c.name); got != c.want {
						t.Errorf("round %d: %s%s moved %d, want %d", r, prefix, c.name, got, c.want)
					}
				}
				in, err := h.Installed()
				if err != nil {
					t.Fatal(err)
				}
				if in.Gen != in0.Gen+1 || installs != installs0+1 {
					t.Errorf("round %d: install %d after %d, %d fanned out; want one install", r, in.Gen, in0.Gen, installs-installs0)
				}
				var got, want []string
				if tc.persistent {
					got = rowKeys(rowsAt(in.Rel, anchor))
					want = rowKeys(naivePersistent(t, db, q, opts.Regions, anchor, horizon))
				} else {
					got = rowKeys(rowsAt(in.Rel, db.Now()))
					want = rowKeys(rowsAt(naiveEval(t, db, q, opts.Regions, horizon), db.Now()))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("round %d: maintained answer %v, fresh evaluation %v", r, got, want)
				}
			}
		})
	}
}
