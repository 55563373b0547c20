package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// planCount reports how many shared plans the engine currently maintains.
func planCount(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.plans)
}

// TestSharedPlanRegistration pins the sharing contract: registrations that
// canonicalize to the same plan key attach to one maintained plan, an
// update pays one patch per plan (not per subscriber), and the plan lives
// exactly as long as its last handle.
func TestSharedPlanRegistration(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	addCar(t, db, cls, "a", geom.Point{X: 15}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`)
	opts := Options{Horizon: 100, Regions: regionP()}

	handles := make([]*Continuous, 5)
	for i := range handles {
		h, err := e.Continuous(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if got := planCount(e); got != 1 {
		t.Fatalf("5 identical registrations built %d plans, want 1", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["query.continuous.shared_plans"]; got != 1 {
		t.Errorf("shared_plans = %d, want 1", got)
	}
	if got := snap.Counters["query.continuous.shared_hits"]; got != 4 {
		t.Errorf("shared_hits = %d, want 4", got)
	}
	// Every handle presents the same installed relation object.
	r0, err := handles[0].Answer()
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles[1:] {
		r, err := h.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if r != r0 {
			t.Errorf("handle %d has a different relation object", i+1)
		}
	}

	// A lifted constant distinguishes plans: WITHIN 20 is a different key.
	q2 := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)`)
	h2, err := e.Continuous(q2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := planCount(e); got != 2 {
		t.Fatalf("distinct windows share a plan: %d plans, want 2", got)
	}
	h2.Cancel()
	if got := planCount(e); got != 1 {
		t.Fatalf("cancelling the only handle left %d plans, want 1", got)
	}

	// One update to the shared plan's class costs one pinned evaluation —
	// not one per subscriber.
	base := e.Evaluations()
	if err := db.SetMotion("a", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Evaluations(); got != base+1 {
		t.Errorf("evaluations after one update = %d, want %d (one pinned patch for the shared plan)", got, base+1)
	}

	// The plan survives until the last handle cancels.
	for _, h := range handles[:4] {
		h.Cancel()
	}
	if got := planCount(e); got != 1 {
		t.Fatalf("plan dropped with a live handle: %d plans", got)
	}
	if _, err := handles[4].Answer(); err != nil {
		t.Fatalf("surviving handle errored: %v", err)
	}
	handles[4].Cancel()
	if got := planCount(e); got != 0 {
		t.Fatalf("plan leaked after last cancel: %d plans", got)
	}
	if got := reg.Snapshot().Counters["query.continuous.shared_plans"]; got != 0 {
		t.Errorf("shared_plans gauge = %d after all cancels, want 0", got)
	}
}

// TestROISkipsIrrelevantUpdates pins the spatial relevance filter: an
// update whose motion envelope provably misses every guard region of a
// plan is skipped without any evaluation — and the gate opens again once
// the update falls outside the installed answer's validity window.
func TestROISkipsIrrelevantUpdates(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	regions := regionP() // P spans x [10,20], y [-10,10]
	addCar(t, db, cls, "far", geom.Point{X: 500}, geom.Vector{X: 1})
	addCar(t, db, cls, "near", geom.Point{X: 0}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`)
	horizon := temporal.Tick(100)
	cq, err := e.Continuous(q, Options{Horizon: horizon, Regions: regions})
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()
	var fanouts atomic.Int64
	if err := cq.Subscribe(func(*eval.Relation) { fanouts.Add(1) }); err != nil {
		t.Fatal(err)
	}

	// "far" keeps moving away: both envelopes miss P, the plan is skipped,
	// and no evaluation or fan-out happens.
	base := e.Evaluations()
	if err := db.SetMotion("far", geom.Vector{X: 2}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["query.continuous.skipped_irrelevant"]; got != 1 {
		t.Errorf("skipped_irrelevant = %d, want 1", got)
	}
	if got := e.Evaluations(); got != base {
		t.Errorf("irrelevant update evaluated: %d evals, want %d", got, base)
	}
	if got := fanouts.Load(); got != 0 {
		t.Errorf("irrelevant update fanned out %d times", got)
	}
	checkAgainstNaive(t, db, cq, q, regions, horizon, "after skipped update")

	// "near" heading into P is relevant: dispatched as a delta patch.
	if err := db.SetMotion("near", geom.Vector{X: 5}); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["query.continuous.delta"]; got != 1 {
		t.Errorf("delta = %d after relevant update, want 1", got)
	}
	checkAgainstNaive(t, db, cq, q, regions, horizon, "after relevant update")

	// Past the answer's validity window (horizon 100 − depth 10 = 90 ticks
	// after the anchor) even a spatially irrelevant update must be
	// dispatched so the plan re-anchors.
	db.Advance(95)
	fullBefore := reg.Snapshot().Counters["query.continuous.full"]
	if err := db.SetMotion("far", geom.Vector{X: 3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["query.continuous.full"]; got != fullBefore+1 {
		t.Errorf("full = %d after post-validity update, want %d (re-anchor forced)", got, fullBefore+1)
	}
	checkAgainstNaive(t, db, cq, q, regions, horizon, "after re-anchor")
}

// TestNoChangeSuppression pins satellite fan-out discipline: a maintenance
// round whose recomputed answer is identical to the installed one must not
// invoke listeners, while a genuine change must.
func TestNoChangeSuppression(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	regions := regionP()
	addCar(t, db, cls, "s", geom.Point{X: 15}, geom.Vector{}) // parked inside P

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: 100, Regions: regions})
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()
	var fanouts atomic.Int64
	if err := cq.Subscribe(func(*eval.Relation) { fanouts.Add(1) }); err != nil {
		t.Fatal(err)
	}

	// Re-issuing the same (zero) motion is a committed update but a no-op
	// for the answer: the patch reproduces the installed relation exactly.
	if err := db.SetMotion("s", geom.Vector{}); err != nil {
		t.Fatal(err)
	}
	if got := fanouts.Load(); got != 0 {
		t.Errorf("no-op update invoked listeners %d times, want 0", got)
	}
	if got := reg.Snapshot().Counters["query.continuous.suppressed"]; got < 1 {
		t.Errorf("suppressed = %d, want >= 1", got)
	}

	// A real trajectory change (the car now exits P) shrinks the
	// satisfaction interval and must fan out.
	if err := db.SetMotion("s", geom.Vector{X: 10}); err != nil {
		t.Fatal(err)
	}
	if got := fanouts.Load(); got != 1 {
		t.Errorf("changing update invoked listeners %d times, want 1", got)
	}
}

// TestFallbackClassifiedWhileFullPending pins the fallback counter's
// classification contract: an undecomposable update is counted even when
// it arrives while a full reevaluation is already scheduled (such updates
// used to be swallowed unclassified by the scheduling switch).
func TestFallbackClassifiedWhileFullPending(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	regions := regionP()
	addCar(t, db, cls, "a", geom.Point{X: 15}, geom.Vector{})

	// Unbounded EVENTUALLY: never deltable, every update is a fallback.
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: 50, Regions: regions})
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()

	// Hold the drain loop: updates deposit work but nothing runs, so the
	// second update below arrives with needFull already set.
	p := cq.sp
	p.mu.Lock()
	p.evaluating = true
	p.mu.Unlock()

	if err := db.SetMotion("a", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMotion("a", geom.Vector{X: 2}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["query.continuous.fallback"]; got != 2 {
		t.Errorf("fallback = %d with full pending, want 2 (both updates classified)", got)
	}

	// Release the drain and converge with a third update.
	p.mu.Lock()
	p.evaluating = false
	p.mu.Unlock()
	if err := db.SetMotion("a", geom.Vector{X: 3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["query.continuous.fallback"]; got != 3 {
		t.Errorf("fallback = %d after drain, want 3", got)
	}
	checkAgainstNaive(t, db, cq, q, regions, 50, "after coalesced fallbacks")
}

// TestSubscribeCancelRace races Subscribe against Cancel and the shared
// plan's drain: a listener added on a live handle must observe a
// subsequent install — never be silently dropped — while sibling handles
// on the same plan register and cancel concurrently (including the
// last-handle plan teardown).  Run under -race by make check.
func TestSubscribeCancelRace(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	regions := regionP()
	addCar(t, db, cls, "v", geom.Point{X: 15}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)`)
	opts := Options{Horizon: 100, Regions: regions}

	// The updater toggles the car between parked-inside-P and
	// sprinting-out-of-P: every committed update changes the answer, so
	// every live listener is guaranteed a fan-out to observe.
	stop := make(chan struct{})
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := geom.Vector{}
			if i%2 == 1 {
				v = geom.Vector{X: 50}
			}
			if err := db.SetMotion("v", v); err != nil {
				t.Errorf("toggle: %v", err)
				return
			}
		}
	}()

	const workers, iters = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h, err := e.Continuous(q, opts)
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				got := make(chan struct{}, 1)
				if err := h.Subscribe(func(*eval.Relation) {
					select {
					case got <- struct{}{}:
					default:
					}
				}); err != nil {
					// The handle is live (not cancelled by us), so
					// Subscribe must not report errUnregistered.
					t.Errorf("subscribe on live handle: %v", err)
					h.Cancel()
					return
				}
				select {
				case <-got:
				case <-time.After(10 * time.Second):
					t.Errorf("worker listener never invoked (iteration %d)", i)
				}
				h.Cancel()
			}
		}()
	}
	wg.Wait()
	close(stop)
	updWG.Wait()
}

// TestOnBatchIrrelevantNoAllocs pins the zero-alloc dispatch path: a
// 16-update batch that no registered plan keeps — every update to a class
// no plan ranges over, or every one skipped by the spatial relevance
// filter — costs a snapshot load and a scan: no locks taken, nothing
// heap-allocated.
func TestOnBatchIrrelevantNoAllocs(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "a", geom.Point{X: 15}, geom.Vector{})
	addCar(t, db, cls, "far", geom.Point{X: 5000}, geom.Vector{X: 1})
	cq, err := e.Continuous(
		ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`),
		Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()

	far, _ := db.Get("far")
	batches := map[string][]most.Update{
		"wrong-class": batchOf16(pedestrianUpdate(t, db)),
		"roi-skip":    batchOf16(most.Update{Tick: db.Now(), Kind: most.UpdateDynamic, Object: "far", Before: far, After: far}),
	}
	for name, ups := range batches {
		if avg := testing.AllocsPerRun(200, func() { e.onBatch(ups) }); avg != 0 {
			t.Errorf("%s batch dispatch allocates %.1f objects/op, want 0", name, avg)
		}
	}
}

// batchOf16 is a 16-update batch of u, the size of a server UpdateBatch in
// the city benchmark.
func batchOf16(u most.Update) []most.Update {
	ups := make([]most.Update, 16)
	for i := range ups {
		ups[i] = u
	}
	return ups
}

// pedestrianUpdate builds a synthetic committed update for a spatial class
// no test query ranges over.
func pedestrianUpdate(t *testing.T, db *most.Database) most.Update {
	t.Helper()
	ped := most.MustClass("Pedestrians", true)
	if err := db.DefineClass(ped); err != nil {
		t.Fatal(err)
	}
	o, err := most.NewObject("p1", ped)
	if err != nil {
		t.Fatal(err)
	}
	o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: 1}, geom.Vector{X: 1}, db.Now()))
	if err != nil {
		t.Fatal(err)
	}
	return most.Update{Tick: db.Now(), Kind: most.UpdateDynamic, Object: "p1", Before: o, After: o}
}

// BenchmarkOnBatchIrrelevant measures the dispatch cost of 16-update
// batches the registered plans do not care about: by class, and by the
// spatial relevance filter (the envelope computation is the price of the
// skip).
func BenchmarkOnBatchIrrelevant(b *testing.B) {
	db := most.NewDatabase()
	cls := most.MustClass("Vehicles", true, most.AttrDef{Name: "PRICE", Kind: most.Static})
	if err := db.DefineClass(cls); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(db)
	mkCar := func(id most.ObjectID, p geom.Point, v geom.Vector) *most.Object {
		o, err := most.NewObject(id, cls)
		if err != nil {
			b.Fatal(err)
		}
		if o, err = o.WithPosition(motion.MovingFrom(p, v, db.Now())); err != nil {
			b.Fatal(err)
		}
		return o
	}
	if err := db.Insert(mkCar("near", geom.Point{X: 15}, geom.Vector{})); err != nil {
		b.Fatal(err)
	}
	far := mkCar("far", geom.Point{X: 5000}, geom.Vector{X: 1})
	if err := db.Insert(far); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cq, err := e.Continuous(
			ftl.MustParse(fmt.Sprintf(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN %d INSIDE(o, P)`, i+3)),
			Options{Horizon: 100, Regions: regionP()})
		if err != nil {
			b.Fatal(err)
		}
		defer cq.Cancel()
	}

	ped := most.MustClass("Walkers", true)
	if err := db.DefineClass(ped); err != nil {
		b.Fatal(err)
	}
	walker, err := most.NewObject("w1", ped)
	if err != nil {
		b.Fatal(err)
	}
	if walker, err = walker.WithPosition(motion.MovingFrom(geom.Point{X: 1}, geom.Vector{X: 1}, db.Now())); err != nil {
		b.Fatal(err)
	}

	b.Run("wrong-class", func(b *testing.B) {
		ups := batchOf16(most.Update{Tick: db.Now(), Kind: most.UpdateDynamic, Object: "w1", Before: walker, After: walker})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.onBatch(ups)
		}
	})
	b.Run("roi-skip", func(b *testing.B) {
		ups := batchOf16(most.Update{Tick: db.Now(), Kind: most.UpdateDynamic, Object: "far", Before: far, After: far})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.onBatch(ups)
		}
	})
}
