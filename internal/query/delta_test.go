package query

import (
	"fmt"
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

// checkAgainstNaive asserts the continuous query's presentation at the
// current tick matches a from-scratch evaluation.
func checkAgainstNaive(t *testing.T, db *most.Database, cq *Continuous, q *ftl.Query, regions map[string]geom.Polygon, horizon temporal.Tick, label string) {
	t.Helper()
	now := db.Now()
	got, err := cq.Current(now)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	naive := naiveEval(t, db, q, regions, horizon)
	var want []Row
	for _, vals := range naive.At(now) {
		want = append(want, Row(vals))
	}
	if !sameRows(got, want) {
		t.Errorf("%s: engine %v, naive %v", label, rowKeys(got), rowKeys(want))
	}
}

// TestContinuousDeltaMaintenance drives decomposable queries through motion
// updates, inserts and deletes, asserting per-update equality with the
// naive evaluator, that maintenance went through the delta path (counter
// and evaluation accounting), and that the full path is only used to
// re-anchor.
func TestContinuousDeltaMaintenance(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	for i := 0; i < 8; i++ {
		addCar(t, db, cls, most.ObjectID(fmt.Sprintf("car-%d", i)),
			geom.Point{X: float64(5 * i), Y: float64(i) - 4}, geom.Vector{X: 1})
	}
	regions := regionP()
	horizon := temporal.Tick(100)

	qSingle := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`)
	qPair := ftl.MustParse(`RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE ALWAYS FOR 5 DIST(o, n) <= 12`)
	opts := Options{Horizon: horizon, Regions: regions}

	cqSingle, err := e.Continuous(qSingle, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cqSingle.Cancel()
	cqPair, err := e.Continuous(qPair, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cqPair.Cancel()

	base := e.Evaluations()

	// One motion update: the single-binding query patches with exactly one
	// pinned evaluation, the pair query with two (o and n pinned in turn).
	if err := db.SetMotion("car-3", geom.Vector{X: -2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Evaluations(); got != base+3 {
		t.Errorf("evaluations after one update = %d, want %d (1 pinned for single + 2 for pair)", got, base+3)
	}
	checkAgainstNaive(t, db, cqSingle, qSingle, regions, horizon, "single after motion")
	checkAgainstNaive(t, db, cqPair, qPair, regions, horizon, "pair after motion")

	// A burst of updates with the clock advancing stays on the delta path
	// (depth 10 and 5 against horizon 100) and stays equal to naive.
	for i := 0; i < 10; i++ {
		db.Advance(3)
		id := most.ObjectID(fmt.Sprintf("car-%d", i%8))
		if err := db.SetMotion(id, geom.Vector{X: float64(i%5) - 2, Y: float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, db, cqSingle, qSingle, regions, horizon, fmt.Sprintf("single step %d", i))
		checkAgainstNaive(t, db, cqPair, qPair, regions, horizon, fmt.Sprintf("pair step %d", i))
	}

	// Insert: the new object's tuples (and, for pairs, its combinations
	// with every existing object) appear via the patch.
	addCar(t, db, cls, "late", geom.Point{X: 30}, geom.Vector{X: -1})
	checkAgainstNaive(t, db, cqSingle, qSingle, regions, horizon, "single after insert")
	checkAgainstNaive(t, db, cqPair, qPair, regions, horizon, "pair after insert")

	// Delete: every tuple naming the object disappears, in either column.
	if err := db.Delete("car-5"); err != nil {
		t.Fatal(err)
	}
	checkAgainstNaive(t, db, cqSingle, qSingle, regions, horizon, "single after delete")
	checkAgainstNaive(t, db, cqPair, qPair, regions, horizon, "pair after delete")

	snap := reg.Snapshot()
	if snap.Counters["query.continuous.delta"] <= 0 {
		t.Errorf("delta counter = %d, want > 0", snap.Counters["query.continuous.delta"])
	}
	if snap.Counters["query.continuous.fallback"] != 0 {
		t.Errorf("fallback counter = %d, want 0 (all shapes decomposable)", snap.Counters["query.continuous.fallback"])
	}
	// The clock advanced 30 ticks against validity horizon-depth >= 90, so
	// no re-anchoring full reevaluation was needed either.
	if snap.Counters["query.continuous.full"] != 0 {
		t.Errorf("full counter = %d, want 0", snap.Counters["query.continuous.full"])
	}
}

// TestContinuousDeltaReanchor pins the window-validity fallback: with depth
// 30 against horizon 50, tuples anchored at the last full evaluation stop
// being presentable 20 ticks later, so maintenance past that point must
// re-anchor with a full reevaluation — and stay equal to naive throughout.
func TestContinuousDeltaReanchor(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	addCar(t, db, cls, "a", geom.Point{X: 0}, geom.Vector{X: 1})
	addCar(t, db, cls, "b", geom.Point{X: 40}, geom.Vector{X: -1})
	regions := regionP()
	horizon := temporal.Tick(50)

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: horizon, Regions: regions})
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()

	for i := 0; i < 12; i++ {
		db.Advance(7) // crosses the 20-tick validity every third step
		if err := db.SetMotion("a", geom.Vector{X: float64(i%3) - 1}); err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, db, cq, q, regions, horizon, fmt.Sprintf("step %d", i))
	}
	snap := reg.Snapshot()
	if snap.Counters["query.continuous.delta"] <= 0 {
		t.Errorf("delta counter = %d, want > 0", snap.Counters["query.continuous.delta"])
	}
	if snap.Counters["query.continuous.full"] <= 0 {
		t.Errorf("full counter = %d, want > 0 (re-anchoring required)", snap.Counters["query.continuous.full"])
	}
	// Re-anchoring is not a decomposability failure.
	if snap.Counters["query.continuous.fallback"] != 0 {
		t.Errorf("fallback counter = %d, want 0", snap.Counters["query.continuous.fallback"])
	}
}

// TestContinuousDeltaFallbacks pins the structural fallback conditions:
// unbounded operators, bindings projected away by answer assembly, and
// assignment-coupled bindings all must route maintenance through full
// reevaluation — with answers still equal to naive.
func TestContinuousDeltaFallbacks(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unbounded-eventually", `RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`},
		{"non-target-binding", `RETRIEVE o FROM Vehicles o, Vehicles n WHERE EVENTUALLY WITHIN 5 DIST(o, n) <= 3`},
		{"assign-coupled", `RETRIEVE o, n FROM Vehicles o, Vehicles n
			WHERE [x <- SPEED(o.X.POSITION)] EVENTUALLY WITHIN 5 SPEED(n.X.POSITION) >= x + 1`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db, cls := testDB(t)
			reg := obs.New()
			e := NewEngine(db)
			e.Instrument(reg)
			addCar(t, db, cls, "u", geom.Point{X: 12}, geom.Vector{})
			addCar(t, db, cls, "v", geom.Point{X: 30}, geom.Vector{X: -1})
			regions := regionP()
			horizon := temporal.Tick(100)

			q := ftl.MustParse(c.src)
			cq, err := e.Continuous(q, Options{Horizon: horizon, Regions: regions})
			if err != nil {
				t.Fatal(err)
			}
			defer cq.Cancel()

			for i := 0; i < 3; i++ {
				db.Advance(1)
				// Always head toward region P: every update's motion
				// envelope overlaps P, so the spatial relevance filter
				// never skips it and the scheduling counters below stay
				// exact.
				if err := db.SetMotion("v", geom.Vector{X: -float64(i) - 1}); err != nil {
					t.Fatal(err)
				}
				checkAgainstNaive(t, db, cq, q, regions, horizon, fmt.Sprintf("step %d", i))
			}
			snap := reg.Snapshot()
			if snap.Counters["query.continuous.delta"] != 0 {
				t.Errorf("delta counter = %d, want 0", snap.Counters["query.continuous.delta"])
			}
			if snap.Counters["query.continuous.full"] != 3 {
				t.Errorf("full counter = %d, want 3", snap.Counters["query.continuous.full"])
			}
			if snap.Counters["query.continuous.fallback"] == 0 {
				t.Errorf("fallback counter = 0, want > 0")
			}
		})
	}
}

// Registration-window regression tests.  The fleet is sized so the initial
// evaluation runs well past the runtime's preemption threshold (~10ms):
// even with GOMAXPROCS=1 the armed updater goroutine is scheduled in the
// middle of the evaluation and its commit lands inside the registration
// window.  An update committed there used to vanish — the handle was not
// yet in the engine's map, so the update dispatch never saw it, and the installed
// answer reflected the pre-update snapshot — leaving Answer(CQ) stale
// until the next relevant update.  With registration-before-evaluation the
// update either lands in the evaluated snapshot or is queued behind the
// held maintenance loop, so the answer always converges.  Run with -race.
// The fleet sizes differ because the two registration paths have very
// different per-object cost: a continuous registration evaluates one
// snapshot, a persistent registration replays the logged history.  Both
// sizes put the initial evaluation at roughly 15-30ms on a modern core.
const (
	windowCarsContinuous = 16000
	windowCarsPersistent = 1500
	windowIters          = 6
	windowHorizon        = temporal.Tick(100)
)

// armCommit readies a goroutine that commits one motion update (sending
// car-0 toward P, flipping its membership) delay after fire is called.
// The goroutine is already running and hot-spinning on an atomic flag when
// fire returns, so the commit time is not distorted by goroutine start-up
// latency; on a single-P runtime the spin also keeps it runnable so the
// scheduler hands it the P as soon as the evaluation is preempted.
func armCommit(t *testing.T, db *most.Database, delay time.Duration) (fire, wait func()) {
	t.Helper()
	var fireAt atomic.Int64
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(ready)
		var start time.Time
		for {
			if ns := fireAt.Load(); ns != 0 {
				start = time.Unix(0, ns)
				break
			}
		}
		for time.Since(start) < delay {
		}
		done <- db.SetMotion("car-0", geom.Vector{X: -1})
	}()
	<-ready
	fire = func() { fireAt.Store(time.Now().UnixNano()) }
	wait = func() {
		if err := <-done; err != nil {
			t.Fatalf("concurrent SetMotion: %v", err)
		}
	}
	return fire, wait
}

func windowFleet(t *testing.T, nCars int) (*most.Database, *Engine) {
	t.Helper()
	db, cls := testDB(t)
	e := NewEngine(db)
	// All cars parked right of P: the answer starts empty.
	for i := 0; i < nCars; i++ {
		addCar(t, db, cls, most.ObjectID(fmt.Sprintf("car-%d", i)),
			geom.Point{X: float64(30 + i%40)}, geom.Vector{})
	}
	return db, e
}

func TestRegistrationWindowContinuous(t *testing.T) {
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 90 INSIDE(o, P)`)
	regions := regionP()
	for iter := 0; iter < windowIters; iter++ {
		db, e := windowFleet(t, windowCarsContinuous)
		// The delay sweeps across the iterations so commits land at
		// different points of the registration regardless of how long the
		// evaluation takes on this machine.
		fire, wait := armCommit(t, db, time.Duration(iter)*2*time.Millisecond)
		fire()
		cq, err := e.Continuous(q, Options{Horizon: windowHorizon, Regions: regions})
		wait()
		if err != nil {
			t.Fatal(err)
		}
		// Both the registration drain and the updater's synchronous
		// maintenance have returned: the answer must reflect the update.
		checkAgainstNaive(t, db, cq, q, regions, windowHorizon, fmt.Sprintf("iter %d", iter))
		cq.Cancel()
	}
}

// TestRegistrationWindowPersistent is the same regression for Persistent:
// an update committed during the initial history replay must be absorbed.
func TestRegistrationWindowPersistent(t *testing.T) {
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 90 INSIDE(o, P)`)
	regions := regionP()
	for iter := 0; iter < windowIters; iter++ {
		db, e := windowFleet(t, windowCarsPersistent)
		fire, wait := armCommit(t, db, time.Duration(iter)*2*time.Millisecond)
		fire()
		pq, err := e.Persistent(q, Options{Horizon: windowHorizon, Regions: regions})
		wait()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pq.Current()
		if err != nil {
			t.Fatal(err)
		}
		want := naivePersistent(t, db, q, regions, pq.Anchor(), windowHorizon)
		if !sameRows(got, want) {
			t.Errorf("iter %d: engine %v, naive %v", iter, rowKeys(got), rowKeys(want))
		}
		pq.Cancel()
	}
}

// TestSubscribeAfterCancel pins the errUnregistered contract: subscribing
// to a cancelled handle fails like Answer/Current do, and the listener is
// never invoked.
func TestSubscribeAfterCancel(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 15}, geom.Vector{})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	opts := Options{Horizon: 50, Regions: regionP()}

	cq, err := e.Continuous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Persistent(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cq.Cancel()
	pq.Cancel()

	cqFired, pqFired := false, false
	if err := cq.Subscribe(func(*eval.Relation) { cqFired = true }); err != errUnregistered {
		t.Errorf("Continuous.Subscribe after Cancel = %v, want errUnregistered", err)
	}
	if err := pq.Subscribe(func([]Row) { pqFired = true }); err != errUnregistered {
		t.Errorf("Persistent.Subscribe after Cancel = %v, want errUnregistered", err)
	}
	if err := db.SetMotion("v", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if cqFired || pqFired {
		t.Errorf("listener fired after cancel: cq=%v pq=%v", cqFired, pqFired)
	}
}

// TestPersistentSkipsIrrelevantUpdates mirrors the continuous-query test:
// updates to a class the persistent query does not range over cannot change
// the replayed history, so they must not cost a reevaluation.
func TestPersistentSkipsIrrelevantUpdates(t *testing.T) {
	db, cls := testDB(t)
	walkers := most.MustClass("Pedestrians", true)
	if err := db.DefineClass(walkers); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})
	w, err := most.NewObject("w", walkers)
	if err != nil {
		t.Fatal(err)
	}
	w, err = w.WithPosition(motion.MovingFrom(geom.Point{X: 5}, geom.Vector{}, db.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(w); err != nil {
		t.Fatal(err)
	}

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 20 INSIDE(o, P)`)
	pq, err := e.Persistent(q, Options{Horizon: 50, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Cancel()

	base := e.Evaluations()
	for i := 0; i < 5; i++ {
		if err := db.SetMotion("w", geom.Vector{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Evaluations(); got != base {
		t.Errorf("evaluations after irrelevant updates = %d, want %d", got, base)
	}
	if err := db.SetMotion("v", geom.Vector{X: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Evaluations(); got != base+1 {
		t.Errorf("evaluations after relevant update = %d, want %d", got, base+1)
	}
}
