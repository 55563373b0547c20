package query

import (
	"fmt"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
)

func testDB(t *testing.T) (*most.Database, *most.Class) {
	t.Helper()
	db := most.NewDatabase()
	cls := most.MustClass("Vehicles", true, most.AttrDef{Name: "PRICE", Kind: most.Static})
	if err := db.DefineClass(cls); err != nil {
		t.Fatal(err)
	}
	return db, cls
}

func addCar(t *testing.T, db *most.Database, cls *most.Class, id most.ObjectID, p geom.Point, v geom.Vector) {
	t.Helper()
	o, err := most.NewObject(id, cls)
	if err != nil {
		t.Fatal(err)
	}
	o, err = o.WithPosition(motion.MovingFrom(p, v, db.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(o); err != nil {
		t.Fatal(err)
	}
}

func regionP() map[string]geom.Polygon {
	return map[string]geom.Polygon{"P": geom.RectPolygon(10, -10, 20, 10)}
}

func ids(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].String()
	}
	return out
}

func TestInstantaneousQuery(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "in", geom.Point{X: 15}, geom.Vector{})
	addCar(t, db, cls, "out", geom.Point{X: 50}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	rows, err := e.Instantaneous(q, Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); len(got) != 1 || got[0] != "in" {
		t.Fatalf("rows = %v", got)
	}
	if e.Evaluations() != 1 {
		t.Fatalf("evaluations = %d", e.Evaluations())
	}
}

func TestInstantaneousDependsOnEntryTime(t *testing.T) {
	// The same query gives different answers at different entry times with
	// no update in between (§2.1).
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	opts := Options{Horizon: 100, Regions: regionP()}

	rows, err := e.Instantaneous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("at t=0: %v", ids(rows))
	}
	db.Advance(15)
	rows, err = e.Instantaneous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); len(got) != 1 || got[0] != "v" {
		t.Fatalf("at t=15: %v", got)
	}
}

func TestContinuousSingleEvaluation(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	base := e.Evaluations()

	// Presentation over 50 ticks costs no further evaluations.
	for tick := db.Now(); tick < 50; tick = db.Tick() {
		rows, err := cq.Current(tick)
		if err != nil {
			t.Fatal(err)
		}
		want := tick >= 10 && tick <= 20
		if (len(rows) == 1) != want {
			t.Fatalf("tick %d: rows=%v want present=%v", tick, ids(rows), want)
		}
	}
	if e.Evaluations() != base {
		t.Fatalf("presentation caused %d reevaluations", e.Evaluations()-base)
	}
	cq.Cancel()
	if _, err := cq.Current(0); err == nil {
		t.Fatal("cancelled query should error")
	}
}

func TestContinuousMaintainedUnderUpdate(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	var notified int
	cq.Subscribe(func(*eval.Relation) { notified++ })

	// Before the update the car is predicted inside during [10,20].
	if rows, _ := cq.Current(15); len(rows) != 1 {
		t.Fatal("should be predicted inside at 15")
	}
	// At t=5 the car turns away; the prediction must be revised.
	db.Advance(5)
	if err := db.SetMotion("v", geom.Vector{Y: 1}); err != nil {
		t.Fatal(err)
	}
	if rows, _ := cq.Current(15); len(rows) != 0 {
		t.Fatal("prediction should be revised after the motion update")
	}
	if notified == 0 {
		t.Fatal("subscriber not notified")
	}
}

func TestContinuousSkipsIrrelevantUpdates(t *testing.T) {
	db, cls := testDB(t)
	other := most.MustClass("Pedestrians", true)
	if err := db.DefineClass(other); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 15}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	cq, err := e.Continuous(q, Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	_ = cq
	base := e.Evaluations()
	// Updates to another class do not trigger reevaluation.
	p, _ := most.NewObject("walker", other)
	p, _ = p.WithPosition(motion.PositionAt(geom.Point{}, 0))
	if err := db.Insert(p); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMotion("walker", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if e.Evaluations() != base {
		t.Fatalf("irrelevant updates caused %d reevaluations", e.Evaluations()-base)
	}
	// Updates to the queried class do.
	if err := db.SetMotion("v", geom.Vector{X: 1}); err != nil {
		t.Fatal(err)
	}
	if e.Evaluations() != base+1 {
		t.Fatalf("relevant update caused %d reevaluations", e.Evaluations()-base)
	}
}

func TestPersistentSpeedDoubling(t *testing.T) {
	// The paper's §2.3 example R, verbatim: speed 5 at time 0, updated to
	// 7t after one minute and 10t after another; as persistent, o is
	// retrieved at time 2; as instantaneous or continuous, never.
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "o", geom.Point{}, geom.Vector{X: 5})

	src := `RETRIEVE o FROM Vehicles o
		WHERE [x <- SPEED(o.X.POSITION)]
			EVENTUALLY WITHIN 10 SPEED(o.X.POSITION) >= 2 * x`
	q := ftl.MustParse(src)
	opts := Options{Horizon: 50}

	// Instantaneous at 0: empty.
	rows, err := e.Instantaneous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("instantaneous should be empty, got %v", ids(rows))
	}
	pq, err := e.Persistent(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := pq.Current(); len(rows) != 0 {
		t.Fatal("persistent should start empty")
	}
	var lastNotify []Row
	pq.Subscribe(func(r []Row) { lastNotify = r })

	db.Advance(1)
	if err := db.UpdateFunction("o", most.XPosition, motion.Linear(7)); err != nil {
		t.Fatal(err)
	}
	if rows, _ := pq.Current(); len(rows) != 0 {
		t.Fatal("7 is not double of 5 yet")
	}
	db.Advance(1)
	if err := db.UpdateFunction("o", most.XPosition, motion.Linear(10)); err != nil {
		t.Fatal(err)
	}
	rows, err = pq.Current()
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); len(got) != 1 || got[0] != "o" {
		t.Fatalf("persistent answer = %v, want [o]", got)
	}
	if len(lastNotify) != 1 {
		t.Fatalf("subscriber saw %v", lastNotify)
	}
	// Instantaneous at time 2 is still empty (future speed is constant).
	rows, err = e.Instantaneous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("instantaneous at t=2 should be empty, got %v", ids(rows))
	}
	pq.Cancel()
	if _, err := pq.Current(); err == nil {
		t.Fatal("cancelled persistent should error")
	}
}

func TestPersistentPositionHistory(t *testing.T) {
	// A persistent spatial query sees the actual past trajectory: the car
	// was inside P during [10,20] even though it later teleported away.
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`)
	pq, err := e.Persistent(q, Options{Horizon: 100, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := pq.Current(); len(rows) != 1 {
		t.Fatal("prediction should already satisfy EVENTUALLY")
	}
	// The car turns away at t=5, before reaching P.
	db.Advance(5)
	if err := db.SetMotion("v", geom.Vector{X: -1}); err != nil {
		t.Fatal(err)
	}
	if rows, _ := pq.Current(); len(rows) != 0 {
		t.Fatal("after turning away the anchored query should be empty")
	}
	// Later it turns back and does reach P in the actual history.
	db.Advance(5) // at x=0 heading -x... now x = 0: 5*1 - 5 = 0
	if err := db.SetMotion("v", geom.Vector{X: 2}); err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Current()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("after turning back the query should be satisfied again")
	}
}

func TestTriggerFiresOnRisingEdge(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	addCar(t, db, cls, "v", geom.Point{X: 0}, geom.Vector{X: 1})

	var fired [][]string
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	tr, err := e.NewTrigger(q, Options{Horizon: 100, Regions: regionP()}, func(rows []Row) {
		fired = append(fired, ids(rows))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Advance the clock, polling each tick: fires once on entry.
	for tick := db.Now(); tick <= 30; tick = db.Tick() {
		tr.Poll(tick)
	}
	if len(fired) != 1 || fired[0][0] != "v" {
		t.Fatalf("fired = %v", fired)
	}
	// Re-entry fires again.
	if err := db.SetMotion("v", geom.Vector{X: -1}); err != nil {
		t.Fatal(err)
	}
	for tick := db.Now(); tick <= 60; tick = db.Tick() {
		tr.Poll(tick)
	}
	if len(fired) != 2 {
		t.Fatalf("after re-entry fired = %v", fired)
	}
	tr.Cancel()
}

func TestEngineErrorPaths(t *testing.T) {
	db, _ := testDB(t)
	e := NewEngine(db)
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, NOWHERE)`)
	if _, err := e.Instantaneous(q, Options{}); err == nil {
		t.Error("unknown region should fail")
	}
	if _, err := e.Continuous(q, Options{}); err == nil {
		t.Error("continuous with bad query should fail at registration")
	}
	if _, err := e.Persistent(q, Options{}); err == nil {
		t.Error("persistent with bad query should fail at registration")
	}
}

// TestMotionIndexAcceleratedInside checks that an INSIDE query answered
// from the database's grid index equals the scan: the first query finds
// the class unindexed, scans and activates the index; the second probes it
// and solves only the candidates.
func TestMotionIndexAcceleratedInside(t *testing.T) {
	db, c := testDB(t)
	e := NewEngine(db)
	reg := obs.New()
	db.Instrument(reg)
	e.Instrument(reg)
	for i := 0; i < 50; i++ {
		id := most.ObjectID(fmt.Sprintf("v%02d", i))
		addCar(t, db, c, id, geom.Point{X: float64(i * 10), Y: float64(i % 7)}, geom.Vector{X: 1})
	}
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`)
	opts := Options{Horizon: 199, Regions: regionP()}

	plain, err := e.InstantaneousRelation(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := e.InstantaneousRelation(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["most.index.activations"] != 1 || snap.Counters["index.snapshot_probes"] != 1 {
		t.Fatalf("activations = %d, probes = %d; want 1 and 1",
			snap.Counters["most.index.activations"], snap.Counters["index.snapshot_probes"])
	}
	if n := snap.Histograms["index.candidates_per_probe"].Sum; n <= 0 || n >= 50 {
		t.Errorf("probe named %d candidates of 50 objects", n)
	}
	pt, at := plain.Tuples(), accel.Tuples()
	if len(pt) == 0 || len(pt) != len(at) {
		t.Fatalf("plain %d tuples, accelerated %d", len(pt), len(at))
	}
	for i := range pt {
		if pt[i].Vals[0] != at[i].Vals[0] || !pt[i].Times.Equal(at[i].Times) {
			t.Fatalf("tuple %d differs: %v vs %v", i, pt[i], at[i])
		}
	}
}

// TestPinnedAndPersistentNeverProbe checks that the grid index stays off
// the per-update maintenance path: pinned delta evaluations read a
// standalone snapshot of the pinned object and persistent evaluations a
// synthesized history, neither of which carries an index, so neither
// probes — only full evaluations over a database snapshot do.
func TestPinnedAndPersistentNeverProbe(t *testing.T) {
	db, c := testDB(t)
	e := NewEngine(db)
	reg := obs.New()
	db.Instrument(reg)
	e.Instrument(reg)
	for i := 0; i < 20; i++ {
		addCar(t, db, c, most.ObjectID(fmt.Sprintf("v%02d", i)), geom.Point{X: float64(i * 2), Y: float64(i%5 - 2)}, geom.Vector{X: 1})
	}
	opts := Options{Horizon: 40, Regions: regionP()}
	for range 2 { // activate, then probe
		if _, err := e.Query(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`, opts); err != nil {
			t.Fatal(err)
		}
	}
	cq, err := e.Continuous(ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)`), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Cancel()
	pq, err := e.Persistent(ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY INSIDE(o, P)`), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Cancel()

	before := reg.Snapshot().Counters
	if before["index.snapshot_probes"] != 2 {
		t.Fatalf("probes before the updates = %d, want 2 (second query, CQ registration)", before["index.snapshot_probes"])
	}
	for i := 0; i < 10; i++ {
		if err := db.SetMotion(most.ObjectID(fmt.Sprintf("v%02d", i)), geom.Vector{X: -1, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	after := reg.Snapshot().Counters
	for _, name := range []string{"query.continuous.delta", "query.persistent.delta"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not move (%d): the updates were not maintained", name, after[name])
		}
	}
	if after["query.continuous.full"] != before["query.continuous.full"] {
		t.Errorf("a full continuous reevaluation ran; the test wants delta rounds only")
	}
	if after["index.snapshot_probes"] != before["index.snapshot_probes"] {
		t.Errorf("maintenance probed the index %d times", after["index.snapshot_probes"]-before["index.snapshot_probes"])
	}
}
