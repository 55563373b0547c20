package eval

import (
	"slices"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// fixture builds a small database of moving vehicles and a context with a
// 100-tick horizon and two regions P (x in [10,20]) and Q (x in [40,50]).
type fixture struct {
	db  *most.Database
	cls *most.Class
	ctx *Context
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := most.NewDatabase()
	cls := most.MustClass("Vehicles", true,
		most.AttrDef{Name: "PRICE", Kind: most.Static},
	)
	if err := db.DefineClass(cls); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{
		Now:     0,
		Horizon: 100,
		Objects: most.NewSnapshot(0),
		Regions: map[string]geom.Polygon{
			"P": geom.RectPolygon(10, -100, 20, 100),
			"Q": geom.RectPolygon(40, -100, 50, 100),
		},
		Params:  map[string]Val{},
		Domains: map[string][]Val{},
	}
	return &fixture{db: db, cls: cls, ctx: ctx}
}

// withObject returns s with o added, replacing any revision of its id.
func withObject(s *most.Snapshot, o *most.Object) *most.Snapshot {
	objs := slices.DeleteFunc(s.Objects(""), func(x *most.Object) bool { return x.ID() == o.ID() })
	return most.NewSnapshot(s.Now(), append(objs, o)...)
}

// addCar inserts a car with the given price, start and velocity, at tick 0.
func (f *fixture) addCar(t *testing.T, id most.ObjectID, price float64, p geom.Point, v geom.Vector) {
	t.Helper()
	o, err := most.NewObject(id, f.cls)
	if err != nil {
		t.Fatal(err)
	}
	o, err = o.WithStatic("PRICE", most.Float(price))
	if err != nil {
		t.Fatal(err)
	}
	o, err = o.WithPosition(motion.MovingFrom(p, v, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.db.Insert(o); err != nil {
		t.Fatal(err)
	}
	f.ctx.Objects = withObject(f.ctx.Objects, o)
	f.ctx.Domains["o"] = append(f.ctx.Domains["o"], ObjVal(id))
}

func (f *fixture) run(t *testing.T, src string) *Relation {
	t.Helper()
	q := ftl.MustParse(src)
	// Rebind all FROM variables to the full object set.
	for _, b := range q.Bindings {
		if _, ok := f.ctx.Domains[b.Var]; !ok {
			f.ctx.Domains[b.Var] = append([]Val{}, f.ctx.Domains["o"]...)
		}
	}
	rel, err := EvalQuery(q, f.ctx)
	if err != nil {
		t.Fatalf("EvalQuery(%s): %v", src, err)
	}
	return rel
}

// ids extracts object ids present at tick t.
func idsAt(rel *Relation, t temporal.Tick) string {
	var out []string
	for _, vals := range rel.At(t) {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "+"))
	}
	return strings.Join(out, ",")
}

func TestQueryIPriceAndEventuallyWithin(t *testing.T) {
	// §3.4 (I): objects entering P within 3 units with PRICE <= 100.
	f := newFixture(t)
	// fast enters P (x>=10) at t=2.5 -> first inside tick 3.
	f.addCar(t, "fast", 80, geom.Point{X: 0}, geom.Vector{X: 4})
	// slow enters P at t=10: not within 3.
	f.addCar(t, "slow", 80, geom.Point{X: 0}, geom.Vector{X: 1})
	// pricey is fast but too expensive.
	f.addCar(t, "pricey", 200, geom.Point{X: 0}, geom.Vector{X: 4})
	// parked inside P but price ok: satisfies immediately.
	f.addCar(t, "parked", 50, geom.Point{X: 15}, geom.Vector{})

	rel := f.run(t, `
		RETRIEVE o FROM Vehicles o
		WHERE o.PRICE <= 100 AND EVENTUALLY WITHIN 3 INSIDE(o, P)`)
	if got := idsAt(rel, 0); got != "fast,parked" {
		t.Errorf("answers at 0 = %q, want fast,parked", got)
	}
	// At tick 7, slow is 3 ticks from entering (enters at 10).
	if got := idsAt(rel, 7); !strings.Contains(got, "slow") {
		t.Errorf("answers at 7 = %q, want slow included", got)
	}
	// fast leaves P at t=5 (x=20); it satisfies until then.
	set, ok := rel.Lookup([]Val{ObjVal("fast")})
	if !ok {
		t.Fatal("fast missing")
	}
	if !set.Contains(5) || set.Contains(6) {
		t.Errorf("fast set = %s; want to end at 5", set)
	}
}

func TestQueryIIStayInside(t *testing.T) {
	// §3.4 (II): enter P within 3, then stay in P for 2 more units.
	f := newFixture(t)
	// quick crosses P (width 10) at speed 5: inside for exactly 2 ticks
	// after entry at some tick? x(t)=5t: inside x in [10,20] -> t in [2,4].
	f.addCar(t, "quick", 0, geom.Point{X: 0}, geom.Vector{X: 5})
	// lingering at speed 2: inside t in [5,10]; stays 2 after entry.
	f.addCar(t, "lingering", 0, geom.Point{X: 0}, geom.Vector{X: 2})

	rel := f.run(t, `
		RETRIEVE o FROM Vehicles o
		WHERE EVENTUALLY WITHIN 3 (INSIDE(o, P) AND ALWAYS FOR 2 INSIDE(o, P))`)
	// quick: inside [2,4]; ALWAYS FOR 2 INSIDE holds at t=2 only; so
	// EVENTUALLY WITHIN 3 of that holds for ticks in [-1,2] -> clipped [0,2].
	set, ok := rel.Lookup([]Val{ObjVal("quick")})
	if !ok || !set.Equal(temporal.NewSet(temporal.Interval{Start: 0, End: 2})) {
		t.Errorf("quick set = %s, want [0 2]", set)
	}
	// lingering: inside [5,10]; ALWAYS FOR 2 holds [5,8]; EVENTUALLY WITHIN
	// 3 -> [2,8].
	set, ok = rel.Lookup([]Val{ObjVal("lingering")})
	if !ok || !set.Equal(temporal.NewSet(temporal.Interval{Start: 2, End: 8})) {
		t.Errorf("lingering set = %s, want [2 8]", set)
	}
}

func TestQueryIIIEnterStayThenQ(t *testing.T) {
	// §3.4 (III): enter P within 3, stay 2, and after at least 5 enter Q.
	f := newFixture(t)
	// through: x(t)=2t -> P at [5,10], Q at [20,25].
	f.addCar(t, "through", 0, geom.Point{X: 0}, geom.Vector{X: 2})
	// stopper: enters P, stays, never reaches Q (stops at x=30 via piecewise).
	o, _ := most.NewObject("stopper", f.cls)
	o, _ = o.WithStatic("PRICE", most.Float(0))
	pos := motion.Position{
		X: motion.DynamicAttr{Value: 0, UpdateTime: 0, Function: motion.MustFunc(
			motion.Piece{Start: 0, Slope: 2}, motion.Piece{Start: 15, Slope: 0})},
		Y: motion.LinearFrom(0, 0, 0),
		Z: motion.LinearFrom(0, 0, 0),
	}
	o, _ = o.WithPosition(pos)
	if err := f.db.Insert(o); err != nil {
		t.Fatal(err)
	}
	f.ctx.Objects = withObject(f.ctx.Objects, o)
	f.ctx.Domains["o"] = append(f.ctx.Domains["o"], ObjVal("stopper"))

	rel := f.run(t, `
		RETRIEVE o FROM Vehicles o
		WHERE EVENTUALLY WITHIN 3 (INSIDE(o, P)
			AND ALWAYS FOR 2 INSIDE(o, P)
			AND EVENTUALLY AFTER 5 INSIDE(o, Q))`)
	if _, ok := rel.Lookup([]Val{ObjVal("stopper")}); ok {
		t.Error("stopper should not qualify (never enters Q)")
	}
	set, ok := rel.Lookup([]Val{ObjVal("through")})
	if !ok {
		t.Fatal("through missing")
	}
	// through: inside P [5,10], ALWAYS FOR 2 -> [5,8]; EVENTUALLY AFTER 5
	// INSIDE Q holds for t <= 20 (Q until 25). Conjunction at [5,8];
	// EVENTUALLY WITHIN 3 -> [2,8].
	if !set.Equal(temporal.NewSet(temporal.Interval{Start: 2, End: 8})) {
		t.Errorf("through set = %s, want [2 8]", set)
	}
}

func TestPaperUntilQuery(t *testing.T) {
	// §3.2: retrieve pairs o,n with DIST(o,n) <= 5 until both are in P.
	f := newFixture(t)
	// a and b travel together 4 apart, both entering P.
	f.addCar(t, "a", 0, geom.Point{X: 0}, geom.Vector{X: 2})
	f.addCar(t, "b", 0, geom.Point{X: 4}, geom.Vector{X: 2})
	// c is far from everyone.
	f.addCar(t, "c", 0, geom.Point{X: 0, Y: 500}, geom.Vector{X: 2})

	q := ftl.MustParse(`
		RETRIEVE o, n FROM Vehicles o, Vehicles n
		WHERE DIST(o, n) <= 5 UNTIL (INSIDE(o, P) AND INSIDE(n, P))`)
	f.ctx.Domains["n"] = append([]Val{}, f.ctx.Domains["o"]...)
	rel, err := EvalQuery(q, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	// At t=0: a,b pairs qualify (dist 4 <= 5 until both inside at t=5..),
	// and each of a,a b,b c,c trivially (dist 0, both enter P eventually
	// for a,a and b,b; c,c: c never enters P because y=500 is outside).
	got := idsAt(rel, 0)
	for _, want := range []string{"a+b", "b+a", "a+a", "b+b"} {
		if !strings.Contains(got, want) {
			t.Errorf("answers at 0 = %q, missing %s", got, want)
		}
	}
	if strings.Contains(got, "c") {
		t.Errorf("answers at 0 = %q; c should not appear", got)
	}
}

func TestAssignmentNexttimeChange(t *testing.T) {
	// [x <- o.X.POSITION] NEXTTIME o.X.POSITION != x — satisfied when the
	// value differs in two consecutive states (§3.3's example).
	f := newFixture(t)
	f.ctx.Horizon = 10
	f.addCar(t, "mover", 0, geom.Point{X: 0}, geom.Vector{X: 1})
	f.addCar(t, "parked", 0, geom.Point{X: 5}, geom.Vector{})

	rel := f.run(t, `
		RETRIEVE o FROM Vehicles o
		WHERE [x <- o.X.POSITION] NEXTTIME o.X.POSITION != x`)
	set, ok := rel.Lookup([]Val{ObjVal("mover")})
	if !ok {
		t.Fatal("mover missing")
	}
	// Satisfied at every tick with a successor in the window: [0,9].
	if !set.Equal(temporal.NewSet(temporal.Interval{Start: 0, End: 9})) {
		t.Errorf("mover set = %s, want [0 9]", set)
	}
	if _, ok := rel.Lookup([]Val{ObjVal("parked")}); ok {
		t.Error("parked should not qualify")
	}
}

func TestAssignmentSpeedDoubling(t *testing.T) {
	// §2.3's query R flavor: speed in X doubles within 10 units.  With the
	// implicit future history the speed only changes at planned breakpoints.
	f := newFixture(t)
	f.ctx.Horizon = 30
	// accel: speed 5 now, planned 10 at t=6 (within 10).
	o, _ := most.NewObject("accel", f.cls)
	o, _ = o.WithStatic("PRICE", most.Float(0))
	o, _ = o.WithPosition(motion.Position{
		X: motion.DynamicAttr{Value: 0, UpdateTime: 0, Function: motion.MustFunc(
			motion.Piece{Start: 0, Slope: 5}, motion.Piece{Start: 6, Slope: 10})},
		Y: motion.LinearFrom(0, 0, 0),
		Z: motion.LinearFrom(0, 0, 0),
	})
	if err := f.db.Insert(o); err != nil {
		t.Fatal(err)
	}
	f.ctx.Objects = withObject(f.ctx.Objects, o)
	f.ctx.Domains["o"] = append(f.ctx.Domains["o"], ObjVal("accel"))
	// steady: constant speed 5 forever.
	f.addCar(t, "steady", 0, geom.Point{X: 0}, geom.Vector{X: 5})

	rel := f.run(t, `
		RETRIEVE o FROM Vehicles o
		WHERE [x <- SPEED(o.X.POSITION)]
			EVENTUALLY WITHIN 10 SPEED(o.X.POSITION) >= 2 * x`)
	set, ok := rel.Lookup([]Val{ObjVal("accel")})
	if !ok {
		t.Fatal("accel missing")
	}
	// Speed doubles at t=6: holds for binding ticks t with 6 in [t, t+10]
	// and speed(t)=5, i.e. t in [0,5]; from t=6 on, x binds to 10 and the
	// speed never reaches 20.
	if !set.Equal(temporal.NewSet(temporal.Interval{Start: 0, End: 5})) {
		t.Errorf("accel set = %s, want [0 5]", set)
	}
	if _, ok := rel.Lookup([]Val{ObjVal("steady")}); ok {
		t.Error("steady should not qualify")
	}
}

func TestNegationAndOr(t *testing.T) {
	f := newFixture(t)
	f.ctx.Horizon = 20
	f.addCar(t, "in", 0, geom.Point{X: 15}, geom.Vector{})
	f.addCar(t, "out", 0, geom.Point{X: 100}, geom.Vector{})

	rel := f.run(t, `RETRIEVE o FROM Vehicles o WHERE NOT INSIDE(o, P)`)
	if got := idsAt(rel, 0); got != "out" {
		t.Errorf("NOT INSIDE at 0 = %q", got)
	}
	rel = f.run(t, `RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P) OR INSIDE(o, Q)`)
	if got := idsAt(rel, 0); got != "in" {
		t.Errorf("OR at 0 = %q", got)
	}
	rel = f.run(t, `RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P) IMPLIES o.PRICE <= 100`)
	// in has PRICE 0 (<=100): implication true; out: antecedent false: true.
	if got := idsAt(rel, 0); got != "in,out" {
		t.Errorf("IMPLIES at 0 = %q", got)
	}
}

func TestWithinSphereQuery(t *testing.T) {
	f := newFixture(t)
	f.ctx.Horizon = 40
	f.addCar(t, "l", 0, geom.Point{X: -30}, geom.Vector{X: 1})
	f.addCar(t, "r", 0, geom.Point{X: 30}, geom.Vector{X: -1})

	q := ftl.MustParse(`
		RETRIEVE o, n FROM Vehicles o, Vehicles n
		WHERE WITHIN_SPHERE(4, o, n) AND o.PRICE <= n.PRICE`)
	f.ctx.Domains["n"] = append([]Val{}, f.ctx.Domains["o"]...)
	rel, err := EvalQuery(q, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	// l and r are within a radius-4 sphere when 60-2t <= 8: t in [26,34].
	set, ok := rel.Lookup([]Val{ObjVal("l"), ObjVal("r")})
	if !ok {
		t.Fatal("pair missing")
	}
	if !set.Equal(temporal.NewSet(temporal.Interval{Start: 26, End: 34})) {
		t.Errorf("pair set = %s, want [26 34]", set)
	}
}

func TestTimeObjectQuery(t *testing.T) {
	f := newFixture(t)
	f.ctx.Now = 50
	f.ctx.Horizon = 20
	f.addCar(t, "v", 0, geom.Point{}, geom.Vector{})
	rel := f.run(t, `RETRIEVE o FROM Vehicles o WHERE time >= 60`)
	set, ok := rel.Lookup([]Val{ObjVal("v")})
	if !ok || !set.Equal(temporal.NewSet(temporal.Interval{Start: 60, End: 70})) {
		t.Errorf("time>=60 = %s, want [60 70]", set)
	}
}

func TestUnboundVariableErrors(t *testing.T) {
	f := newFixture(t)
	f.addCar(t, "v", 0, geom.Point{}, geom.Vector{})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE o.PRICE <= z`)
	if _, err := EvalQuery(q, f.ctx); err == nil {
		t.Error("unbound z should fail")
	}
	q = ftl.MustParse(`RETRIEVE w WHERE TRUE`)
	if _, err := EvalQuery(q, f.ctx); err == nil {
		t.Error("unbound target should fail")
	}
	q = ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, NOWHERE)`)
	if _, err := EvalQuery(q, f.ctx); err == nil {
		t.Error("unknown region should fail")
	}
}

func TestParamsAsConstants(t *testing.T) {
	f := newFixture(t)
	f.ctx.Horizon = 10
	f.ctx.Params["limit"] = NumVal(100)
	f.addCar(t, "cheap", 50, geom.Point{}, geom.Vector{})
	f.addCar(t, "costly", 150, geom.Point{}, geom.Vector{})
	rel := f.run(t, `RETRIEVE o FROM Vehicles o WHERE o.PRICE <= limit`)
	if got := idsAt(rel, 0); got != "cheap" {
		t.Errorf("param query = %q", got)
	}
}

func TestAssignmentDynamicTermDiscretization(t *testing.T) {
	// Binding a continuously-varying term requires discretization; the
	// state cap must be enforced.
	f := newFixture(t)
	f.ctx.Horizon = 5000
	f.ctx.MaxAssignStates = 100
	f.addCar(t, "m", 0, geom.Point{}, geom.Vector{X: 1})
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE [x <- o.X.POSITION] x >= 0`)
	if _, err := EvalQuery(q, f.ctx); err == nil {
		t.Error("discretization over the cap should fail")
	}
	f.ctx.Horizon = 50
	if _, err := EvalQuery(q, f.ctx); err != nil {
		t.Errorf("within the cap should work: %v", err)
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation("a", "b")
	r.Add([]Val{NumVal(1), NumVal(2)}, temporal.NewSet(temporal.Interval{Start: 0, End: 5}))
	r.Add([]Val{NumVal(1), NumVal(2)}, temporal.NewSet(temporal.Interval{Start: 6, End: 9}))
	r.Add([]Val{NumVal(1), NumVal(3)}, temporal.NewSet(temporal.Interval{Start: 0, End: 1}))
	r.Add([]Val{NumVal(9), NumVal(9)}, temporal.Set{}) // empty set: dropped

	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Tuples with equal values coalesced (and consecutive intervals merged).
	set, ok := r.Lookup([]Val{NumVal(1), NumVal(2)})
	if !ok || !set.Equal(temporal.NewSet(temporal.Interval{Start: 0, End: 9})) {
		t.Errorf("coalesced set = %s", set)
	}
	p, err := r.Project([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("projected Len = %d", p.Len())
	}
	if _, err := r.Project([]string{"zzz"}); err == nil {
		t.Error("bad projection should fail")
	}
	// Answers flatten per interval.
	ans := r.Answers()
	if len(ans) != 2 {
		t.Fatalf("answers = %+v", ans)
	}
}

func TestRelationJoin(t *testing.T) {
	a := NewRelation("x")
	a.Add([]Val{NumVal(1)}, temporal.NewSet(temporal.Interval{Start: 0, End: 10}))
	a.Add([]Val{NumVal(2)}, temporal.NewSet(temporal.Interval{Start: 0, End: 10}))
	b := NewRelation("x", "y")
	b.Add([]Val{NumVal(1), StrVal("p")}, temporal.NewSet(temporal.Interval{Start: 5, End: 20}))
	b.Add([]Val{NumVal(3), StrVal("q")}, temporal.NewSet(temporal.Interval{Start: 0, End: 2}))

	j := Join(a, b)
	if j.Len() != 1 {
		t.Fatalf("join Len = %d", j.Len())
	}
	set, ok := j.Lookup([]Val{NumVal(1), StrVal("p")})
	if !ok || !set.Equal(temporal.NewSet(temporal.Interval{Start: 5, End: 10})) {
		t.Errorf("join set = %s", set)
	}
	// Disjoint columns: cartesian product with intersected windows.
	c := NewRelation("z")
	c.Add([]Val{BoolVal(true)}, temporal.NewSet(temporal.Interval{Start: 8, End: 30}))
	j2 := Join(a, c)
	if j2.Len() != 2 {
		t.Fatalf("product Len = %d", j2.Len())
	}
}
