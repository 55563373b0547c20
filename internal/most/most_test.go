package most

import (
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

func vehicleClass(t *testing.T) *Class {
	t.Helper()
	return MustClass("Vehicles", true,
		AttrDef{Name: "PRICE", Kind: Static},
		AttrDef{Name: "FUEL", Kind: Dynamic},
	)
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() || Float(1).IsNull() {
		t.Error("IsNull wrong")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("AsFloat wrong")
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("string AsFloat should fail")
	}
	if Int(3) != Float(3) {
		t.Error("Int should equal Float")
	}
	cmp := []struct {
		a, b Value
		want int
	}{
		{Float(1), Float(2), -1},
		{Float(2), Float(2), 0},
		{Str("b"), Str("a"), 1},
		{Bool(false), Bool(true), -1},
		{Null(), Float(0), -1},
	}
	for _, c := range cmp {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Float(1.5).String() != "1.5" || Str("hi").String() != "hi" || Bool(true).String() != "true" || Null().String() != "NULL" {
		t.Error("String rendering wrong")
	}
}

func TestClassDeclaration(t *testing.T) {
	c := vehicleClass(t)
	if c.Name() != "Vehicles" || !c.Spatial() {
		t.Fatal("class metadata wrong")
	}
	// Spatial classes get position attributes implicitly.
	for _, name := range []string{XPosition, YPosition, ZPosition} {
		def, ok := c.Attr(name)
		if !ok || def.Kind != Dynamic {
			t.Errorf("missing implicit dynamic attribute %s", name)
		}
	}
	if def, _ := c.Attr("PRICE"); def.Kind != Static {
		t.Error("PRICE should be static")
	}
	if _, ok := c.Attr("NOPE"); ok {
		t.Error("unknown attribute found")
	}
	if _, err := NewClass("", false); err == nil {
		t.Error("empty class name should fail")
	}
	if _, err := NewClass("C", false, AttrDef{Name: "A"}, AttrDef{Name: "A"}); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := NewClass("C", true, AttrDef{Name: XPosition}); err == nil {
		t.Error("redeclaring implicit position should fail")
	}
}

func TestObjectRevisions(t *testing.T) {
	c := vehicleClass(t)
	o, err := NewObject("car1", c)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o.WithStatic("PRICE", Float(90))
	if err != nil {
		t.Fatal(err)
	}
	// Old revision unchanged (immutability).
	if v, _ := o.Static("PRICE"); !v.IsNull() {
		t.Error("original revision mutated")
	}
	if v, _ := o2.Static("PRICE"); v != Float(90) {
		t.Error("new revision missing value")
	}
	// Kind mismatches are rejected.
	if _, err := o.WithStatic("FUEL", Float(1)); err == nil {
		t.Error("setting dynamic attr as static should fail")
	}
	if _, err := o.WithDynamic("PRICE", motion.Static(1)); err == nil {
		t.Error("setting static attr as dynamic should fail")
	}
	if _, err := o.Static("MISSING"); err == nil {
		t.Error("unknown attribute should fail")
	}
	// Position plumbing.
	o3, err := o2.WithPosition(motion.MovingFrom(geom.Point{X: 1, Y: 2}, geom.Vector{X: 3, Y: 0}, 0))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := o3.PositionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if pt != (geom.Point{X: 7, Y: 2}) {
		t.Errorf("PositionAt = %v", pt)
	}
	// ValueAt dispatches on kind.
	if v, _ := o3.ValueAt("PRICE", 5); v != Float(90) {
		t.Error("static ValueAt wrong")
	}
	if v, _ := o3.ValueAt(XPosition, 2); v != Float(7) {
		t.Errorf("dynamic ValueAt = %v", v)
	}
}

func newTestDB(t *testing.T) (*Database, *Class) {
	t.Helper()
	db := NewDatabase()
	c := vehicleClass(t)
	if err := db.DefineClass(c); err != nil {
		t.Fatal(err)
	}
	return db, c
}

func insertCar(t *testing.T, db *Database, c *Class, id ObjectID, p geom.Point, v geom.Vector) {
	t.Helper()
	o, err := NewObject(id, c)
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

func TestDatabaseClock(t *testing.T) {
	db := NewDatabase()
	if db.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	if db.Tick() != 1 || db.Advance(9) != 10 {
		t.Fatal("clock arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance should panic")
		}
	}()
	db.Advance(-1)
}

func TestDatabaseCRUD(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "a", geom.Point{}, geom.Vector{X: 1})
	insertCar(t, db, c, "b", geom.Point{X: 5}, geom.Vector{})

	if db.Count() != 2 {
		t.Fatalf("Count = %d", db.Count())
	}
	if got := db.Objects("Vehicles"); len(got) != 2 || got[0].ID() != "a" {
		t.Fatalf("Objects = %v", got)
	}
	if got := db.Objects(""); len(got) != 2 {
		t.Fatalf("all Objects = %v", got)
	}
	// Duplicate insert fails.
	o, _ := NewObject("a", c)
	if err := db.Insert(o); err == nil {
		t.Error("duplicate insert should fail")
	}
	// Undefined class fails.
	other := MustClass("Ghost", false)
	g, _ := NewObject("g", other)
	if err := db.Insert(g); err == nil {
		t.Error("insert with undefined class should fail")
	}
	if err := db.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("a"); err == nil {
		t.Error("double delete should fail")
	}
	if _, ok := db.Get("a"); ok {
		t.Error("deleted object still visible")
	}
	if got := db.Objects("Vehicles"); len(got) != 1 || got[0].ID() != "b" {
		t.Fatalf("Objects after delete = %v", got)
	}
}

func TestDynamicAttributeQueryDependsOnTime(t *testing.T) {
	// §2.1: "the answer may be different for time-points t1 and t2, even
	// though the database has not been explicitly updated between them."
	db, c := newTestDB(t)
	insertCar(t, db, c, "car", geom.Point{}, geom.Vector{X: 5})
	o, _ := db.Get("car")
	v1, _ := o.ValueAt(XPosition, db.Now())
	version := db.Version()
	db.Advance(3)
	o2, _ := db.Get("car")
	v2, _ := o2.ValueAt(XPosition, db.Now())
	if v1 != Float(0) || v2 != Float(15) {
		t.Fatalf("v1=%v v2=%v", v1, v2)
	}
	if db.Version() != version {
		t.Fatal("no explicit updates should have been committed")
	}
}

func TestSetMotionContinuity(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "car", geom.Point{}, geom.Vector{X: 2})
	db.Advance(5) // car is now at x=10
	if err := db.SetMotion("car", geom.Vector{Y: 1}); err != nil {
		t.Fatal(err)
	}
	o, _ := db.Get("car")
	p, _ := o.PositionAt(5)
	if p != (geom.Point{X: 10}) {
		t.Fatalf("position discontinuous after SetMotion: %v", p)
	}
	p, _ = o.PositionAt(8)
	if p != (geom.Point{X: 10, Y: 3}) {
		t.Fatalf("position after retarget = %v", p)
	}
	if err := db.SetMotion("ghost", geom.Vector{}); err == nil {
		t.Error("SetMotion on missing object should fail")
	}
}

func TestUpdateFunctionAndSubattributeQuery(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "car", geom.Point{}, geom.Vector{X: 5})
	db.Advance(1)
	if err := db.UpdateFunction("car", XPosition, motion.Linear(7)); err != nil {
		t.Fatal(err)
	}
	o, _ := db.Get("car")
	dyn, err := o.Dynamic(XPosition)
	if err != nil {
		t.Fatal(err)
	}
	// Sub-attributes are independently queryable (§2.1).
	if dyn.Value != 5 || dyn.UpdateTime != 1 || !dyn.Function.Equal(motion.Linear(7)) {
		t.Fatalf("sub-attributes = %+v", dyn)
	}
	if err := db.UpdateFunction("car", "NOPE", motion.Linear(1)); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestListeners(t *testing.T) {
	db, c := newTestDB(t)
	var events []Update
	calls := 0
	db.Subscribe(func(ups []Update) { calls++; events = append(events, ups...) })
	insertCar(t, db, c, "car", geom.Point{}, geom.Vector{})
	if err := db.SetStatic("car", "PRICE", Float(50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("car"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || calls != 3 {
		t.Fatalf("events = %d in %d calls", len(events), calls)
	}
	if events[0].Kind != UpdateInsert || events[1].Kind != UpdateStatic || events[2].Kind != UpdateDelete {
		t.Fatalf("event kinds = %v %v %v", events[0].Kind, events[1].Kind, events[2].Kind)
	}
	if events[1].Attr != "PRICE" || events[1].Before == nil || events[1].After == nil {
		t.Fatalf("static update event = %+v", events[1])
	}

	// A Batch notifies once, with its updates in commit order; a batch
	// that commits nothing does not notify.
	insertCar(t, db, c, "a", geom.Point{}, geom.Vector{})
	insertCar(t, db, c, "b", geom.Point{}, geom.Vector{})
	events, calls = nil, 0
	if err := db.Batch(func(tx *Tx) error {
		for _, id := range []ObjectID{"b", "a", "b"} {
			if err := tx.SetMotion(id, geom.Vector{X: 1}, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Batch(func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(events) != 3 || events[0].Object != "b" || events[1].Object != "a" || events[2].Object != "b" {
		t.Fatalf("batch notified %d times with %d updates, want once with b, a, b", calls, len(events))
	}
}

func TestHistoryReconstruction(t *testing.T) {
	// Reproduces the paper's §2.3 speed-doubling setup: function 5t at time
	// 0, updated to 7t at time 1, to 10t at time 2.
	db, c := newTestDB(t)
	_, release := db.HoldHistory()
	defer release()
	insertCar(t, db, c, "o", geom.Point{}, geom.Vector{X: 5})
	db.Advance(1)
	if err := db.UpdateFunction("o", XPosition, motion.Linear(7)); err != nil {
		t.Fatal(err)
	}
	db.Advance(1)
	if err := db.UpdateFunction("o", XPosition, motion.Linear(10)); err != nil {
		t.Fatal(err)
	}
	h := db.History()
	if h.Now() != 2 {
		t.Fatalf("Now = %d", h.Now())
	}
	// Past speeds are reconstructed from the log.
	wantSpeed := map[temporal.Tick]float64{0: 5, 1: 7, 2: 10, 5: 10}
	for tick, want := range wantSpeed {
		o, ok := h.RevisionAt("o", tick)
		if !ok {
			t.Fatalf("no revision at %d", tick)
		}
		dyn, _ := o.Dynamic(XPosition)
		if got := dyn.Function.SlopeAt(0); got != want {
			t.Errorf("speed at %d = %v, want %v", tick, got, want)
		}
	}
	// Values along the actual history: x(0)=0, x(1)=5, x(2)=12, x(3)=22.
	for tick, want := range map[temporal.Tick]float64{0: 0, 1: 5, 2: 12, 3: 22} {
		o, ok := h.RevisionAt("o", tick)
		if !ok {
			t.Fatalf("no revision at %d", tick)
		}
		v, err := o.ValueAt(XPosition, tick)
		if err != nil {
			t.Fatal(err)
		}
		if v != Float(want) {
			t.Errorf("x(%d) = %v, want %v", tick, v, want)
		}
	}
	// Before the insert there is no revision.
	db2, c2 := newTestDB(t)
	_, release2 := db2.HoldHistory()
	defer release2()
	db2.Advance(5)
	insertCar(t, db2, c2, "late", geom.Point{}, geom.Vector{})
	db2.Advance(1)
	h2 := db2.History()
	if _, ok := h2.RevisionAt("late", 3); ok {
		t.Error("object should not exist before insert")
	}
	if _, ok := h2.RevisionAt("late", 5); !ok {
		t.Error("object should exist from its insert on")
	}
}

func TestHistoryAfterDelete(t *testing.T) {
	db, c := newTestDB(t)
	_, release := db.HoldHistory()
	defer release()
	insertCar(t, db, c, "o", geom.Point{}, geom.Vector{})
	db.Advance(2)
	if err := db.Delete("o"); err != nil {
		t.Fatal(err)
	}
	db.Advance(1)
	h := db.History()
	if _, ok := h.RevisionAt("o", 1); !ok {
		t.Error("object should exist at tick 1")
	}
	if _, ok := h.RevisionAt("o", 2); ok {
		t.Error("object should be deleted at tick 2")
	}
}

func TestSpatialMethods(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "a", geom.Point{X: 5, Y: 5}, geom.Vector{X: 1})
	insertCar(t, db, c, "b", geom.Point{X: 5, Y: 9}, geom.Vector{})
	a, _ := db.Get("a")
	b, _ := db.Get("b")

	sq := geom.RectPolygon(0, 0, 10, 10)
	if in, _ := Inside(a, sq, 0); !in {
		t.Error("a should be inside at t=0")
	}
	if in, _ := Inside(a, sq, 6); in {
		t.Error("a should be outside at t=6 (x=11)")
	}
	if out, _ := Outside(a, sq, 6); !out {
		t.Error("Outside should be the negation")
	}
	if d, _ := DistBetween(a, b, 0); d != 4 {
		t.Errorf("DIST = %v, want 4", d)
	}
	if ok, _ := WithinASphere(1.9, 0, a, b); ok {
		t.Error("radius 1.9 should not enclose points 4 apart")
	}
	if ok, _ := WithinASphere(2, 0, a, b); !ok {
		t.Error("radius 2 should enclose points 4 apart (diameter 4)")
	}
	if ok, _ := WithinASphere(1, 0); !ok {
		t.Error("no objects should trivially enclose")
	}
	// Non-spatial class errors.
	nc := MustClass("Plain", false, AttrDef{Name: "A", Kind: Static})
	if err := db.DefineClass(nc); err != nil {
		t.Fatal(err)
	}
	p, _ := NewObject("p", nc)
	if err := db.Insert(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Inside(p, sq, 0); err == nil {
		t.Error("Inside on non-spatial object should fail")
	}
	if _, err := WithinASphere(1, 0, a, p); err == nil {
		t.Error("WithinASphere with non-spatial object should fail")
	}
}

// GetIn answers as Get does whichever class it is told to probe first.
func TestSnapshotGetIn(t *testing.T) {
	var objs []*Object
	for _, name := range []string{"Buses", "Cars", "Motels"} {
		cls := MustClass(name, false)
		for _, n := range []string{"1", "2"} {
			o, err := NewObject(ObjectID(name+"-"+n), cls)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
	}
	snap := NewSnapshot(0, objs...)
	for _, want := range objs {
		for _, class := range []string{"Buses", "Cars", "Motels", "Trams", ""} {
			if got, ok := snap.GetIn(class, want.ID()); !ok || got != want {
				t.Fatalf("GetIn(%q, %s) = %v, %v", class, want.ID(), got, ok)
			}
		}
	}
	if _, ok := snap.GetIn("Cars", "Trams-1"); ok {
		t.Fatal("GetIn found an id no class holds")
	}
}
