package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// quadScenario builds objects with a quadratic FUEL attribute (positions
// stay linear, as the model requires).
func quadScenario(r *rand.Rand, n int) *Context {
	cls := most.MustClass("Planes", true, most.AttrDef{Name: "FUEL", Kind: most.Dynamic})
	ctx := &Context{
		Now:     0,
		Horizon: 30,
		Objects: most.NewSnapshot(0),
		Regions: map[string]geom.Polygon{},
		Params:  map[string]Val{},
		Domains: map[string][]Val{},
	}
	for i := 0; i < n; i++ {
		id := most.ObjectID(fmt.Sprintf("p%d", i))
		o, err := most.NewObject(id, cls)
		if err != nil {
			panic(err)
		}
		o, _ = o.WithPosition(motion.MovingFrom(geom.Point{X: float64(i)}, geom.Vector{X: 1}, 0))
		fuel := motion.DynamicAttr{
			Value:    float64(100 + r.Intn(100)),
			Function: motion.Accelerating(float64(-r.Intn(4)), float64(r.Intn(3)-2)*0.5),
		}
		o, err = o.WithDynamic("FUEL", fuel)
		if err != nil {
			panic(err)
		}
		ctx.Objects = withObject(ctx.Objects, o)
		ctx.Domains["o"] = append(ctx.Domains["o"], ObjVal(id))
	}
	return ctx
}

// TestQuadraticAttrFormulasMatchReference cross-checks FTL formulas over
// accelerating attributes against the brute-force evaluator.
func TestQuadraticAttrFormulasMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	srcs := []string{
		`RETRIEVE o FROM Planes o WHERE o.FUEL <= 80`,
		`RETRIEVE o FROM Planes o WHERE EVENTUALLY WITHIN 10 o.FUEL < 60`,
		`RETRIEVE o FROM Planes o WHERE ALWAYS FOR 5 o.FUEL >= 50`,
		`RETRIEVE o FROM Planes o WHERE o.FUEL >= 90 UNTIL o.FUEL < 90`,
		`RETRIEVE o FROM Planes o WHERE [x <- SPEED(o.FUEL)] EVENTUALLY SPEED(o.FUEL) < x - 1`,
	}
	for i := 0; i < 30; i++ {
		ctx := quadScenario(r, 1+r.Intn(3))
		src := srcs[i%len(srcs)]
		q := ftl.MustParse(src)
		got, err := EvalQuery(q, ctx)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, src, err)
		}
		want, err := ReferenceEval(q, ctx)
		if err != nil {
			t.Fatalf("case %d reference: %v", i, err)
		}
		if !relationsEqual(got, want) {
			t.Fatalf("case %d mismatch for %s:\n got: %s\nwant: %s",
				i, src, dumpRelation(got), dumpRelation(want))
		}
	}
}

// TestQuadraticSpeedIsLinear checks that SPEED of an accelerating
// attribute evaluates as a linear function of time.
func TestQuadraticSpeedIsLinear(t *testing.T) {
	ctx := quadScenario(rand.New(rand.NewSource(1)), 0)
	cls := most.MustClass("Planes2", true, most.AttrDef{Name: "FUEL", Kind: most.Dynamic})
	o, _ := most.NewObject("jet", cls)
	o, _ = o.WithPosition(motion.MovingFrom(geom.Point{}, geom.Vector{}, 0))
	// FUEL burns at 2 + t per tick (speed -2 - t): speed crosses -10 at t=8.
	o, err := o.WithDynamic("FUEL", motion.DynamicAttr{Value: 500, Function: motion.Accelerating(-2, -1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx.Objects = withObject(ctx.Objects, o)
	ctx.Domains["o"] = []Val{ObjVal("jet")}
	ctx.Horizon = 20

	q := ftl.MustParse(`RETRIEVE o FROM Planes2 o WHERE SPEED(o.FUEL) <= -10`)
	rel, err := EvalQuery(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	set, ok := rel.Lookup([]Val{ObjVal("jet")})
	if !ok {
		t.Fatal("jet missing")
	}
	if !set.Equal(temporal.NewSet(temporal.Interval{Start: 8, End: 20})) {
		t.Fatalf("speed<= -10 set = %s, want [8 20]", set)
	}
}

// TestPositionsMustStayLinear asserts the model-level guard.
func TestPositionsMustStayLinear(t *testing.T) {
	cls := most.MustClass("V", true)
	o, _ := most.NewObject("v", cls)
	quad := motion.DynamicAttr{Function: motion.Accelerating(1, 1)}
	if _, err := o.WithDynamic(most.XPosition, quad); err == nil {
		t.Fatal("quadratic X.POSITION should be rejected")
	}
	if _, err := o.WithPosition(motion.Position{X: quad}); err == nil {
		t.Fatal("quadratic position should be rejected")
	}
}
