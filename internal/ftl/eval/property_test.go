package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// randomScenario builds a fleet of randomly moving vehicles.  All values
// are small integers (or quarters) so closed-form roots are exact and the
// relation algorithm and the reference evaluator cannot disagree through
// float noise at boundary instants.
func randomScenario(r *rand.Rand, nObjs int) *Context {
	cls := most.MustClass("V", true, most.AttrDef{Name: "PRICE", Kind: most.Static})
	ctx := &Context{
		Now:     temporal.Tick(r.Intn(5)),
		Horizon: 25,
		Objects: most.NewSnapshot(0),
		Regions: map[string]geom.Polygon{
			"P": geom.RectPolygon(5, -20, 15, 20),
			"Q": geom.RectPolygon(-10, -20, 0, 20),
		},
		Params:  map[string]Val{},
		Domains: map[string][]Val{},
	}
	for i := 0; i < nObjs; i++ {
		id := most.ObjectID(fmt.Sprintf("o%d", i))
		o, err := most.NewObject(id, cls)
		if err != nil {
			panic(err)
		}
		o, _ = o.WithStatic("PRICE", most.Float(float64(r.Intn(8)*25)))
		// Position: random start, piecewise velocity with 1-2 pieces.
		mk := func() motion.DynamicAttr {
			pieces := []motion.Piece{{Start: 0, Slope: float64(r.Intn(7) - 3)}}
			if r.Intn(2) == 0 {
				pieces = append(pieces, motion.Piece{Start: float64(3 + r.Intn(12)), Slope: float64(r.Intn(7) - 3)})
			}
			return motion.DynamicAttr{
				Value:      float64(r.Intn(41) - 20),
				UpdateTime: ctx.Now,
				Function:   motion.MustFunc(pieces...),
			}
		}
		o, _ = o.WithPosition(motion.Position{X: mk(), Y: mk(), Z: motion.LinearFrom(0, 0, 0)})
		ctx.Objects = withObject(ctx.Objects, o)
		ctx.Domains["o"] = append(ctx.Domains["o"], ObjVal(id))
		ctx.Domains["n"] = append(ctx.Domains["n"], ObjVal(id))
	}
	return ctx
}

// randomFormula generates a random FTL formula of bounded depth over
// variables o and n.
func randomFormula(r *rand.Rand, depth int) ftl.Formula {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return ftl.Inside{Obj: ftl.Var{Name: "o"}, Region: ftl.Var{Name: "P"}}
		case 1:
			return ftl.Inside{Obj: ftl.Var{Name: "n"}, Region: ftl.Var{Name: "Q"}}
		case 2:
			return ftl.Compare{Op: relopFor(r), L: ftl.AttrRef{Obj: ftl.Var{Name: "o"}, Path: []string{"PRICE"}}, R: ftl.Num{V: float64(r.Intn(8) * 25)}}
		case 3:
			return ftl.Compare{Op: relopFor(r), L: ftl.DistOf{A: ftl.Var{Name: "o"}, B: ftl.Var{Name: "n"}}, R: ftl.Num{V: float64(r.Intn(20))}}
		case 4:
			return ftl.Compare{
				Op: relopFor(r),
				L:  ftl.AttrRef{Obj: ftl.Var{Name: "o"}, Path: []string{"X", "POSITION"}},
				R:  ftl.Num{V: float64(r.Intn(31) - 15)},
			}
		default:
			return ftl.Outside{Obj: ftl.Var{Name: "o"}, Region: ftl.Var{Name: "P"}}
		}
	}
	sub := func() ftl.Formula { return randomFormula(r, depth-1) }
	switch r.Intn(10) {
	case 0:
		return ftl.And{L: sub(), R: sub()}
	case 1:
		return ftl.Or{L: sub(), R: sub()}
	case 2:
		return ftl.Not{F: sub()}
	case 3:
		return ftl.Until{L: sub(), R: sub()}
	case 4:
		return ftl.Until{L: sub(), R: sub(), Within: ftl.Num{V: float64(r.Intn(10))}}
	case 5:
		return ftl.Nexttime{F: sub()}
	case 6:
		return ftl.Eventually{F: sub(), Within: ftl.Num{V: float64(r.Intn(10))}}
	case 7:
		return ftl.Eventually{F: sub(), After: ftl.Num{V: float64(r.Intn(6))}}
	case 8:
		return ftl.Always{F: sub(), For: ftl.Num{V: float64(r.Intn(6))}}
	default:
		return ftl.Eventually{F: sub()}
	}
}

func relopFor(r *rand.Rand) string {
	return []string{"<", "<=", ">", ">=", "=", "!="}[r.Intn(6)]
}

// TestAlgorithmMatchesReference is the central correctness property: the
// appendix relation algorithm agrees with the literal §3.3 semantics on
// random fleets and random formulas.
func TestAlgorithmMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 150; i++ {
		ctx := randomScenario(r, 1+r.Intn(3))
		f := randomFormula(r, 1+r.Intn(2))
		q := &ftl.Query{Targets: []string{"o"}, Where: f}
		got, err := EvalQuery(q, ctx)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, f, err)
		}
		want, err := ReferenceEval(q, ctx)
		if err != nil {
			t.Fatalf("case %d reference (%s): %v", i, f, err)
		}
		if !relationsEqual(got, want) {
			t.Fatalf("case %d mismatch for %s:\n got: %s\nwant: %s",
				i, f, dumpRelation(got), dumpRelation(want))
		}
	}
}

// TestAssignmentMatchesReference exercises the assignment quantifier
// against the reference semantics.
func TestAssignmentMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	templates := []string{
		`RETRIEVE o FROM V o WHERE [x <- o.PRICE] EVENTUALLY WITHIN 5 o.PRICE >= x`,
		`RETRIEVE o FROM V o WHERE [x <- SPEED(o.X.POSITION)] EVENTUALLY WITHIN 8 SPEED(o.X.POSITION) > x`,
		`RETRIEVE o FROM V o WHERE [x <- o.X.POSITION] NEXTTIME o.X.POSITION != x`,
		`RETRIEVE o FROM V o WHERE [x <- o.X.POSITION.value] o.X.POSITION >= x`,
		`RETRIEVE o FROM V o WHERE [x <- time] EVENTUALLY WITHIN 3 time = x + 3`,
	}
	for i := 0; i < 40; i++ {
		ctx := randomScenario(r, 1+r.Intn(3))
		src := templates[i%len(templates)]
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

// TestPairQueriesMatchReference exercises two-variable queries (joins,
// alignment and expansion paths).
func TestPairQueriesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	for i := 0; i < 60; i++ {
		ctx := randomScenario(r, 2+r.Intn(2))
		f := randomFormula(r, 2)
		q := &ftl.Query{Targets: []string{"o", "n"}, Where: f}
		got, err := EvalQuery(q, ctx)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, f, err)
		}
		want, err := ReferenceEval(q, ctx)
		if err != nil {
			t.Fatalf("case %d reference: %v", i, err)
		}
		if !relationsEqual(got, want) {
			t.Fatalf("case %d mismatch for %s:\n got: %s\nwant: %s",
				i, f, dumpRelation(got), dumpRelation(want))
		}
	}
}

func relationsEqual(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	ta, tb := a.Tuples(), b.Tuples()
	for i := range ta {
		if len(ta[i].Vals) != len(tb[i].Vals) {
			return false
		}
		for j := range ta[i].Vals {
			if ta[i].Vals[j] != tb[i].Vals[j] {
				return false
			}
		}
		if !ta[i].Times.Equal(tb[i].Times) {
			return false
		}
	}
	return true
}

func dumpRelation(r *Relation) string {
	s := ""
	for _, t := range r.Tuples() {
		s += "\n  "
		for _, v := range t.Vals {
			s += v.String() + " "
		}
		s += "-> " + t.Times.String()
	}
	if s == "" {
		return "(empty)"
	}
	return s
}

// TestGenericCompareBisection drives the sampled fallback (products of
// trajectories have no closed form) and sanity-checks it per tick.
func TestGenericCompareBisection(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		ctx := randomScenario(r, 1)
		ctx.BisectSamples = 2048
		q := ftl.MustParse(`RETRIEVE o FROM V o WHERE o.X.POSITION * o.Y.POSITION >= 1`)
		rel, err := EvalQuery(q, ctx)
		if err != nil {
			t.Fatal(err)
		}
		id := ctx.Domains["o"][0]
		obj, _ := ctx.Objects.Get(id.Obj)
		pos, _ := obj.Position()
		w := ctx.Window()
		set, _ := rel.Lookup([]Val{id})
		for tick := w.Start; tick <= w.End; tick++ {
			x := pos.X.At(tick)
			y := pos.Y.At(tick)
			want := x*y >= 1
			if set.Contains(tick) != want {
				if math.Abs(x*y-1) < 1e-6 {
					continue
				}
				t.Fatalf("case %d tick %d: got %v want %v (x=%v y=%v)", i, tick, set.Contains(tick), want, x, y)
			}
		}
	}
}
