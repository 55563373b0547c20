package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// TestPersistentPlanListenerFiresOnChange pins the listener contract a
// persistent query shares with continuous ones: a listener fires once per
// reevaluation that changes the answer relation, and not for an update
// that leaves it unchanged.
func TestPersistentPlanListenerFiresOnChange(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{})
	addCar(t, db, cls, "far", geom.Point{X: 500}, geom.Vector{})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`)
	pq, err := e.Persistent(q, Options{Horizon: 50, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Cancel()
	var fired [][]Row
	if err := pq.Subscribe(func(rows []Row) { fired = append(fired, rows) }); err != nil {
		t.Fatal(err)
	}

	// "far" drives further away from P: the replayed history changes, the
	// answer relation does not.
	db.Advance(1)
	base := e.Evaluations()
	if err := db.SetMotion("far", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if e.Evaluations() != base+1 {
		t.Fatalf("update cost %d evaluations, want 1", e.Evaluations()-base)
	}
	if len(fired) != 0 {
		t.Fatalf("listener fired %d times for an unchanged answer: %v", len(fired), fired)
	}

	// "v" drives into P: one changed answer, one notification.
	db.Advance(1)
	if err := db.SetMotion("v", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("listener fired %d times for one changed answer, want 1", len(fired))
	}
	if got := ids(fired[0]); len(got) != 1 || got[0] != "v" {
		t.Fatalf("notified answer = %v, want [v]", got)
	}
	rows, err := pq.Current()
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); len(got) != 1 || got[0] != "v" {
		t.Fatalf("Current = %v, want [v]", got)
	}
}

// TestPlanReevalError checks the error and reset branches of a plan's
// install, on a continuous and on a persistent plan: a failed round makes
// Installed and Current report the round's error and no rows, not the
// answer of an earlier round, and the next successful round fans out a
// reset (the whole answer, numbered one past the last install, with no
// patch) equal to a fresh evaluation.
func TestPlanReevalError(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		name := map[bool]string{false: "continuous", true: "persistent"}[persistent]
		t.Run(name, func(t *testing.T) {
			db, cls := testDB(t)
			e := NewEngine(db)
			addCar(t, db, cls, "v", geom.Point{X: 15}, geom.Vector{})
			addCar(t, db, cls, "w", geom.Point{X: 30}, geom.Vector{})
			// The assignment term is piecewise constant while the cars are
			// parked; once v moves it varies continuously over more states
			// than allowed, in the present and in the logged history.
			q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE [x <- o.X.POSITION] o.X.POSITION >= x`)
			const horizon = 50
			opts := Options{Horizon: horizon, MaxAssignStates: 10}
			var h *Continuous
			var current func() ([]Row, error)
			var fresh func() []Row
			at := db.Now
			if persistent {
				pq, err := e.Persistent(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer pq.Cancel()
				h, current, at = pq.cq, pq.Current, pq.Anchor
				fresh = func() []Row { return naivePersistent(t, db, q, nil, pq.Anchor(), horizon) }
			} else {
				cq, err := e.Continuous(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer cq.Cancel()
				h, current = cq, func() ([]Row, error) { return cq.Current(db.Now()) }
				fresh = func() []Row { return rowsAt(naiveEval(t, db, q, nil, horizon), db.Now()) }
			}
			var fanned []Install
			if err := h.SubscribeInstalls(func(in Install) { fanned = append(fanned, in) }); err != nil {
				t.Fatal(err)
			}
			if rows, err := current(); err != nil || len(rows) != 2 {
				t.Fatalf("initial Current = %v, %v; want [v w]", ids(rows), err)
			}
			in0, _ := h.Installed()

			db.Advance(1)
			if err := db.SetMotion("v", geom.Vector{X: 1}); err != nil {
				t.Fatal(err)
			}
			if in, err := h.Installed(); err == nil || !strings.Contains(err.Error(), "MaxAssignStates") || in.Rel != nil {
				t.Fatalf("Installed after a failed round = %v, %v; want no answer and the round's error", in.Rel, err)
			}
			rows, err := current()
			if err == nil || !strings.Contains(err.Error(), "MaxAssignStates") {
				t.Fatalf("Current after a failed round: err = %v, want the round's error", err)
			}
			if rows != nil {
				t.Errorf("Current after a failed round returned rows %v beside the error", ids(rows))
			}
			if len(fanned) != 0 {
				t.Fatalf("a failed round fanned out %d installs", len(fanned))
			}

			// Deleting v takes its motion out of both sources.
			db.Advance(1)
			if err := db.Delete("v"); err != nil {
				t.Fatal(err)
			}
			if len(fanned) != 1 {
				t.Fatalf("recovering round fanned out %d installs, want 1", len(fanned))
			}
			in := fanned[0]
			if in.Patch != nil || in.Gen != in0.Gen+1 {
				t.Errorf("recovering install: gen %d (patch %v), want a reset numbered %d", in.Gen, in.Patch, in0.Gen+1)
			}
			got, want := rowKeys(rowsAt(in.Rel, at())), rowKeys(fresh())
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("reset answer %v, fresh evaluation %v", got, want)
			}
			if rows, err := current(); err != nil || !reflect.DeepEqual(rowKeys(rows), want) {
				t.Errorf("Current after the reset = %v, %v; want %v", rowKeys(rows), err, want)
			}
		})
	}
}

// TestPersistentPlanFailedRegistrationReleasesHold checks that a
// persistent registration whose first evaluation fails leaves no hold on
// the update log behind.
func TestPersistentPlanFailedRegistrationReleasesHold(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 15}, geom.Vector{})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, Nowhere)`)
	if _, err := e.Persistent(q, Options{Horizon: 50, Regions: regionP()}); err == nil {
		t.Fatal("registration over an undefined region succeeded")
	}
	db.Advance(1)
	if err := db.SetMotion("v", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if n := len(db.History().Updates()); n != 0 {
		t.Fatalf("update log holds %d updates after a failed registration", n)
	}
}

// TestPersistentPlanNeverSkips registers a persistent and a continuous
// query of one ROI-bounded, deltable shape.  The continuous plan patches
// relevant updates and skips spatially irrelevant ones; the persistent
// plan skips none, and patches every update to its class at the cost of
// the updated object alone: one delta round that synthesizes one object's
// history and runs one pinned evaluation, never a full replay.
func TestPersistentPlanNeverSkips(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	addCar(t, db, cls, "near", geom.Point{X: 5}, geom.Vector{})
	addCar(t, db, cls, "far", geom.Point{X: 500, Y: 500}, geom.Vector{})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)`)
	opts := Options{Horizon: 50, Regions: regionP()}

	pq, err := e.Persistent(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Cancel()
	counters := func() map[string]int64 { return reg.Snapshot().Counters }
	for name, n := range counters() {
		if strings.HasPrefix(name, "query.continuous") && n != 0 {
			t.Errorf("persistent registration moved %s to %d", name, n)
		}
	}
	cq, err := e.Continuous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()

	for _, u := range []struct {
		id   string
		v    geom.Vector
		skip bool
	}{
		{"far", geom.Vector{X: 1}, true},
		{"near", geom.Vector{X: 1}, false},
		{"far", geom.Vector{Y: 1}, true},
	} {
		before := counters()
		evals := e.Evaluations()
		db.Advance(1)
		if err := db.SetMotion(most.ObjectID(u.id), u.v); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		after := snap.Counters
		moved := func(name string) int64 { return after[name] - before[name] }
		// The continuous plan adds one pinned evaluation when it patches.
		want := 2
		if u.skip {
			want = 1
		}
		if got := e.Evaluations() - evals; got != want {
			t.Errorf("%s: %d evaluations, want %d (one pinned evaluation per patching plan)", u.id, got, want)
		}
		if got := moved("query.persistent.delta"); got != 1 {
			t.Errorf("%s: query.persistent.delta moved %d, want 1", u.id, got)
		}
		if got := moved("query.persistent.full"); got != 0 {
			t.Errorf("%s: query.persistent.full moved %d, want 0 (the persistent plan patches)", u.id, got)
		}
		tr, ok := snap.Traces["query.persistent.delta"]
		if !ok {
			t.Fatalf("%s: no query.persistent.delta trace", u.id)
		}
		hist, ok := tr.Find("synthesize_history")
		if !ok || hist.Attrs["objects"] != 1 {
			t.Errorf("%s: delta round synthesized %v objects, want 1", u.id, hist.Attrs["objects"])
		}
		if got := moved("query.continuous.skipped_irrelevant"); (got == 1) != u.skip {
			t.Errorf("%s: skipped_irrelevant moved %d, want skip=%v", u.id, got, u.skip)
		}
		if got := moved("query.continuous.full"); got != 0 {
			t.Errorf("%s: query.continuous.full moved %d, want 0 (the continuous plan patches)", u.id, got)
		}
	}
}

// TestSynthesizeOneObjectMatchesWhole is the property the persistent delta
// path rests on: synthesizing the history of {o} alone gives exactly the
// revision (byte for byte in the binary object encoding) that a
// whole-history synthesis gives o, and leaves o out exactly when the
// whole synthesis does.  Seeded random schedules mix motion updates,
// teleports (a jump of X.POSITION), inserts after the anchor and deletes,
// and run the clock well past anchor+horizon, checking every id ever seen
// after every step.
func TestSynthesizeOneObjectMatchesWhole(t *testing.T) {
	const horizon = temporal.Tick(20)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, cls := testDB(t)
			rng := rand.New(rand.NewSource(seed))
			point := func() geom.Point { return geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100} }
			vector := func() geom.Vector { return geom.Vector{X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2} }
			var live, seen []most.ObjectID
			add := func() {
				id := most.ObjectID(fmt.Sprintf("car-%02d", len(seen)))
				addCar(t, db, cls, id, point(), vector())
				live, seen = append(live, id), append(seen, id)
			}
			for range 4 {
				add()
			}
			db.Advance(3)
			t0, release := db.HoldHistory()
			defer release()
			end := t0.Add(horizon)

			var moves, teleports, inserts, deletes, pastHorizon int
			for step := 0; step < 40; step++ {
				db.Advance(temporal.Tick(rng.Intn(4)))
				switch op := rng.Intn(4); {
				case op == 2 || len(live) == 0:
					add()
					inserts++
				case op == 3 && len(live) > 1:
					i := rng.Intn(len(live))
					if err := db.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
					deletes++
				case op == 1:
					id := live[rng.Intn(len(live))]
					jump := motion.LinearFrom(rng.Float64()*100, db.Now(), rng.Float64()*4-2)
					if err := db.SetDynamic(id, most.XPosition, jump); err != nil {
						t.Fatal(err)
					}
					teleports++
				default:
					if err := db.SetMotion(live[rng.Intn(len(live))], vector()); err != nil {
						t.Fatal(err)
					}
					moves++
				}
				if db.Now() > end {
					pastHorizon++
				}

				h := db.History()
				whole := synthesizeHistory(h, t0, end)
				for _, id := range seen {
					one := synthesizeHistory(h, t0, end, id)
					want, inWhole := whole.Get(id)
					got, inOne := one.Get(id)
					if inWhole != inOne || one.Len() != btoi(inOne) {
						t.Fatalf("step %d %s: alone holds %d objects (has it: %v), whole has it: %v", step, id, one.Len(), inOne, inWhole)
					}
					if inWhole && !bytes.Equal(most.EncodeObject(got), most.EncodeObject(want)) {
						t.Fatalf("step %d %s: synthesized alone differs from the whole-history revision", step, id)
					}
				}
			}
			if moves == 0 || teleports == 0 || inserts == 0 || deletes == 0 || pastHorizon == 0 {
				t.Fatalf("schedule missed a case: moves %d, teleports %d, inserts %d, deletes %d, steps past t0+horizon %d",
					moves, teleports, inserts, deletes, pastHorizon)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
