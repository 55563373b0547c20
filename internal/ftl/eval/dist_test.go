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
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// spreadScenario builds a fleet spread over a plane of about 40 x 40 times
// scale: about a third of the objects stand still, the rest move with one
// or two pieces of velocity.  Every coordinate, velocity and breakpoint is
// a small integer times a power of two times scale, so positions at ticks
// are exact and the relation algorithm and the reference evaluator see
// the same numbers.
func spreadScenario(r *rand.Rand, nObjs int, scale float64) *Context {
	cls := most.MustClass("V", true, most.AttrDef{Name: "PRICE", Kind: most.Static})
	ctx := &Context{
		Now:     temporal.Tick(r.Intn(5)),
		Horizon: 25,
		Objects: most.NewSnapshot(0),
		Params:  map[string]Val{},
		Domains: map[string][]Val{},
		Obs:     obs.New(),
	}
	for i := 0; i < nObjs; i++ {
		id := most.ObjectID(fmt.Sprintf("o%d", i))
		o, err := most.NewObject(id, cls)
		if err != nil {
			panic(err)
		}
		o, _ = o.WithStatic("PRICE", most.Float(float64(r.Intn(4)*25)))
		still := r.Intn(3) == 0
		coord := func() motion.DynamicAttr {
			a := motion.DynamicAttr{Value: float64(r.Intn(41)-20) * scale, UpdateTime: ctx.Now}
			if still {
				return a
			}
			pieces := []motion.Piece{{Start: 0, Slope: float64(r.Intn(5)-2) * scale / 16}}
			if r.Intn(2) == 0 {
				pieces = append(pieces, motion.Piece{Start: float64(3 + r.Intn(12)), Slope: float64(r.Intn(5)-2) * scale / 16})
			}
			a.Function = motion.MustFunc(pieces...)
			return a
		}
		o, _ = o.WithPosition(motion.Position{X: coord(), Y: coord(), Z: motion.Static(0)})
		ctx.Objects = withObject(ctx.Objects, o)
		ctx.Domains["o"] = append(ctx.Domains["o"], ObjVal(id))
		ctx.Domains["n"] = append(ctx.Domains["n"], ObjVal(id))
	}
	return ctx
}

// envelopeGap is the distance between the bounding boxes of two objects'
// trajectories over the window: a lower bound of their distance.
func envelopeGap(ctx *Context, a, b Val) float64 {
	w := ctx.Window()
	box := func(v Val) (lo, hi [2]float64) {
		o, _ := ctx.Objects.Get(v.Obj)
		pos, _ := o.Position()
		lo[0], hi[0] = pos.X.Range(float64(w.Start), float64(w.End))
		lo[1], hi[1] = pos.Y.Range(float64(w.Start), float64(w.End))
		return lo, hi
	}
	alo, ahi := box(a)
	blo, bhi := box(b)
	var g2 float64
	for i := range alo {
		d := math.Max(0, math.Max(alo[i]-bhi[i], blo[i]-ahi[i]))
		g2 += d * d
	}
	return math.Sqrt(g2)
}

// distRadius picks the constant of a DIST atom: half the time within 1e-6
// relative of the envelope gap of a random pair, just inside or just
// outside it, otherwise a random multiple of scale offset by a third.  The
// offset keeps k off the distances exact positions reach, whose boundary
// ticks the exact solve does not always place as the reference does.
func distRadius(r *rand.Rand, ctx *Context, scale float64) float64 {
	dom := ctx.Domains["o"]
	if r.Intn(2) == 0 {
		if g := envelopeGap(ctx, dom[r.Intn(len(dom))], dom[r.Intn(len(dom))]); g > 0 {
			return g * (1 + []float64{-1e-6, -3e-7, 3e-7, 1e-6}[r.Intn(4)])
		}
	}
	return (float64(r.Intn(24)) + 1.0/3) * scale
}

// TestDistJoinMatchesReference is TestAlgorithmMatchesReference for DIST
// joins: spread fleets with stationary objects, at coordinate scales 1
// and 1e6, DIST against a constant under all six operators (either side
// of the comparison, one variable, a parameter-bound object), inside a
// temporal operator, and conjoined with a static attribute on either side
// of DIST.  Each answer must equal the §3.3 reference's, and the counters
// must show that the envelope prune decided pairs both ways (no tick and
// every tick) and that the conjunctions narrowed the DIST atom's domain.
func TestDistJoinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	var prunedNone, prunedAll, narrowed int64
	for _, scale := range []float64{1, 1e6} {
		for i := 0; i < 160; i++ {
			ctx := spreadScenario(r, 3+r.Intn(6), scale)
			dist := ftl.Compare{Op: relopFor(r), L: ftl.DistOf{A: ftl.Var{Name: "o"}, B: ftl.Var{Name: "n"}}, R: ftl.Num{V: distRadius(r, ctx, scale)}}
			price := func(v string) ftl.Formula {
				return ftl.Compare{Op: relopFor(r), L: ftl.AttrRef{Obj: ftl.Var{Name: v}, Path: []string{"PRICE"}}, R: ftl.Num{V: float64(r.Intn(4) * 25)}}
			}
			targets := []string{"o", "n"}
			conj := false
			var f ftl.Formula
			switch i % 7 {
			case 0:
				f = dist
			case 1:
				f, conj = ftl.And{L: price("o"), R: dist}, true
			case 2:
				f, conj = ftl.And{L: dist, R: price("n")}, true
			case 3:
				f = ftl.Compare{Op: flipOp(dist.Op), L: dist.R, R: dist.L}
			case 4:
				f = ftl.Eventually{F: ftl.And{L: price("o"), R: dist}, Within: ftl.Num{V: float64(r.Intn(6))}}
			case 5:
				// A parameter-bound object: a one-value domain.
				dom := ctx.Domains["o"]
				ctx.Params["p"] = dom[r.Intn(len(dom))]
				dist.L = ftl.DistOf{A: ftl.Var{Name: "o"}, B: ftl.Var{Name: "p"}}
				f, targets = dist, []string{"o"}
			default:
				dist.L = ftl.DistOf{A: ftl.Var{Name: "o"}, B: ftl.Var{Name: "o"}}
				f, targets = dist, []string{"o"}
			}
			before := ctx.Obs.Snapshot().Counters
			q := &ftl.Query{Targets: targets, Where: f}
			got, err := EvalQuery(q, ctx)
			if err != nil {
				t.Fatalf("scale %g case %d (%s): %v", scale, i, f, err)
			}
			after := ctx.Obs.Snapshot().Counters
			want, err := ReferenceEval(q, ctx)
			if err != nil {
				t.Fatalf("scale %g case %d reference (%s): %v", scale, i, f, err)
			}
			if !relationsEqual(got, want) {
				t.Fatalf("scale %g case %d mismatch for %s:\n got: %s\nwant: %s",
					scale, i, f, dumpRelation(got), dumpRelation(want))
			}
			if pruned := after["eval.dist_pruned"] - before["eval.dist_pruned"]; pruned > 0 {
				switch dist.Op {
				case ">", ">=", "!=":
					prunedAll += pruned
				default:
					prunedNone += pruned
				}
			}
			// Unnarrowed, a conjunction enumerates the static atom's
			// domain and then every pair.
			if n := int64(len(ctx.Domains["o"])); conj && after["eval.instantiations"]-before["eval.instantiations"] < n+n*n {
				narrowed++
			}
		}
	}
	if prunedNone == 0 || prunedAll == 0 {
		t.Errorf("envelope prune decided %d pairs as never and %d as always true; want both > 0", prunedNone, prunedAll)
	}
	if narrowed == 0 {
		t.Error("no conjunction narrowed the DIST atom's domain")
	}
}

// TestDistPruneKeepsExactAnswers checks that deciding a pair from its
// envelopes never changes what solving it exactly answers: for every pair
// of spread fleets and every operator, the DIST atom's tuple equals
// distCompare's on that pair.  The last case is a pair the exact solve's
// absolute tolerance counts as within k although it is 1e-13 farther
// apart; the prune's margin must leave it to the solve.
func TestDistPruneKeepsExactAnswers(t *testing.T) {
	check := func(t *testing.T, ctx *Context, op string, k float64) {
		t.Helper()
		atom := ftl.Compare{Op: op, L: ftl.DistOf{A: ftl.Var{Name: "o"}, B: ftl.Var{Name: "n"}}, R: ftl.Num{V: k}}
		got, err := ctx.EvalFormula(atom)
		if err != nil {
			t.Fatal(err)
		}
		w := ctx.Window()
		spans := func(v Val) []motion.Span {
			o, _ := ctx.Objects.Get(v.Obj)
			pos, _ := o.Position()
			return pos.MovingPointsOver(float64(w.Start), float64(w.End))
		}
		for _, a := range ctx.Domains["o"] {
			for _, b := range ctx.Domains["n"] {
				want, err := ctx.distCompare(op, spans(a), spans(b), k)
				if err != nil {
					t.Fatal(err)
				}
				if set, _ := got.Lookup([]Val{a, b}); !set.Equal(want) {
					t.Fatalf("DIST(%s, %s) %s %g: atom %v, exact solve %v", a, b, op, k, set, want)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(99))
	for _, scale := range []float64{1, 1e6} {
		for i := 0; i < 40; i++ {
			ctx := spreadScenario(r, 2+r.Intn(5), scale)
			check(t, ctx, relopFor(r), distRadius(r, ctx, scale))
		}
	}

	cls := most.MustClass("V", true)
	ctx := &Context{Horizon: 10, Objects: most.NewSnapshot(0), Domains: map[string][]Val{}}
	for i, p := range []geom.Point{{}, {X: 0.6, Y: 0.8}} {
		o, _ := most.NewObject(most.ObjectID(fmt.Sprintf("s%d", i)), cls)
		o, _ = o.WithPosition(motion.PositionAt(p, 0))
		ctx.Objects = withObject(ctx.Objects, o)
		ctx.Domains["o"] = append(ctx.Domains["o"], ObjVal(o.ID()))
	}
	ctx.Domains["n"] = ctx.Domains["o"]
	for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
		check(t, ctx, op, geom.Dist(geom.Point{}, geom.Point{X: 0.6, Y: 0.8})-1e-13)
	}
}

// TestNarrowedConjunctKeepsIndex checks that a conjunction narrowing a
// variable keeps the INSIDE atom over it on the snapshot's grid index:
// the atom probes the index and solves only the candidates in the
// narrowed domain, on either side of the conjunction, and the answer
// equals the reference's.
func TestNarrowedConjunctKeepsIndex(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 40; i++ {
		f.addCar(t, most.ObjectID(fmt.Sprintf("c%02d", i)), float64(i%4*50), geom.Point{X: float64(i * 3), Y: float64(i % 7)}, geom.Vector{X: float64(i%3 - 1)})
	}
	reg := obs.New()
	bind := func(src string) (*ftl.Query, *Context) {
		q := ftl.MustParse(src)
		ctx := &Context{Horizon: 20, Objects: f.db.Snapshot(), Regions: f.ctx.Regions, Obs: reg}
		if err := ctx.BindDomains(q); err != nil {
			t.Fatal(err)
		}
		return q, ctx
	}
	// The first probe finds the class unindexed and activates its index.
	if _, err := EvalQuery(bind(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)); err != nil {
		t.Fatal(err)
	}
	// maxInst bounds the instantiations: the static atom's 40, plus no
	// more than the cars it lets through (20 at PRICE <= 50, 10 at
	// PRICE = 100) when the INSIDE atom comes second.
	for _, c := range []struct {
		src     string
		maxInst int64
	}{
		{`RETRIEVE o FROM Vehicles o WHERE o.PRICE <= 50 AND INSIDE(o, P)`, 40 + 20},
		{`RETRIEVE o FROM Vehicles o WHERE o.PRICE = 100 AND EVENTUALLY WITHIN 4 INSIDE(o, Q)`, 40 + 10},
		{`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P) AND o.PRICE > 50`, 2 * 40},
	} {
		src := c.src
		q, ctx := bind(src)
		before := reg.Snapshot().Counters
		got, err := EvalQuery(q, ctx)
		if err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot().Counters
		if probes := after["index.snapshot_probes"] - before["index.snapshot_probes"]; probes != 1 {
			t.Errorf("%s: %d index probes, want 1", src, probes)
		}
		if inst := after["eval.instantiations"] - before["eval.instantiations"]; inst > c.maxInst {
			t.Errorf("%s: %d instantiations, want at most %d", src, inst, c.maxInst)
		}
		want, err := ReferenceEval(q, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !relationsEqual(got, want) {
			t.Fatalf("%s:\n got: %s\nwant: %s", src, dumpRelation(got), dumpRelation(want))
		}
	}
}
