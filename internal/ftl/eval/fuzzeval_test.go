package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/temporal"
)

// FuzzFTLEval parses arbitrary query text and, when it parses, evaluates
// it over a small fixed fleet, checking the properties the evaluator must
// hold for EVERY accepted input:
//
//   - no panic anywhere in parse → bind → evaluate;
//   - every answer tuple's satisfaction set is normalized (the appendix
//     invariant) and lies within the evaluation window;
//   - rewrite soundness: evaluating the normalized query yields the
//     identical relation;
//   - tri-state soundness: when the query's targets cover its domain-bound
//     free variables, each instantiation's satisfaction sets for f and
//     NOT f partition the window — no tick is both satisfied and
//     unsatisfied, and none is lost.
//
// Run longer with `make fuzzftl`.
func FuzzFTLEval(f *testing.F) {
	seeds := []string{
		`RETRIEVE o FROM V o WHERE TRUE`,
		`RETRIEVE o FROM V o WHERE Eventually INSIDE(o, P)`,
		`RETRIEVE o, n FROM V o, V n WHERE DIST(o, n) <= 5 UNTIL (INSIDE(o, P) AND INSIDE(n, P))`,
		`RETRIEVE o FROM V o WHERE [x <- SPEED(o.X.POSITION)] EVENTUALLY WITHIN 5 SPEED(o.X.POSITION) >= 2 * x`,
		`RETRIEVE o FROM V o WHERE EVENTUALLY WITHIN 3 (INSIDE(o, P) AND ALWAYS FOR 2 INSIDE(o, P))`,
		`RETRIEVE o FROM V o WHERE NOT OUTSIDE(o, P) OR o.PRICE != 25`,
		`RETRIEVE o FROM V o WHERE time + 1 >= 2 IMPLIES NEXTTIME TRUE`,
		`RETRIEVE o FROM V o WHERE WITHIN_SPHERE(2.5, o, o, o)`,
		`RETRIEVE o FROM V o WHERE INSIDE(o, P) UNTIL OUTSIDE(o, Q)`,
		// DIST joins: a static conjunct narrowing either side, every
		// operator, DIST on the right, one variable, a far radius.
		`RETRIEVE o, n FROM V o, V n WHERE o.PRICE <= 50 AND DIST(o, n) > 3`,
		`RETRIEVE o, n FROM V o, V n WHERE DIST(o, n) >= 7 AND n.PRICE = 25`,
		`RETRIEVE o, n FROM V o, V n WHERE 4 < DIST(o, n) AND INSIDE(n, P)`,
		`RETRIEVE o, n FROM V o, V n WHERE EVENTUALLY WITHIN 3 (o.PRICE > 25 AND DIST(o, n) = 5)`,
		`RETRIEVE o, n FROM V o, V n WHERE NOT (DIST(o, n) != 2 AND o.PRICE < 100)`,
		`RETRIEVE o FROM V o WHERE DIST(o, o) <= 0`,
		`RETRIEVE o, n FROM V o, V n WHERE DIST(n, o) < 1000000 AND DIST(o, n) >= 0.5 * 3`,
		`RETRIEVE`,
		`[`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return
		}
		q, err := ftl.Parse(src)
		if err != nil {
			return
		}
		if len(q.Bindings) > 4 {
			return
		}
		rel, ctx := fuzzEval(q)
		if rel == nil {
			return // rejected by bind or eval: fine, as long as it didn't panic
		}
		w := ctx.Window()
		for _, tu := range rel.Tuples() {
			if !tu.Times.Normalized() {
				t.Fatalf("tuple %v: satisfaction set %v not normalized", tu.Vals, tu.Times)
			}
			if mn, ok := tu.Times.Min(); ok && mn < w.Start {
				t.Fatalf("tuple %v: satisfaction set %v starts before window %v", tu.Vals, tu.Times, w)
			}
			if mx, ok := tu.Times.Max(); ok && mx > w.End {
				t.Fatalf("tuple %v: satisfaction set %v ends after window %v", tu.Vals, tu.Times, w)
			}
		}

		// Rewrite soundness.
		nq := ftl.NormalizeQuery(*q)
		nrel, _ := fuzzEval(&nq)
		if nrel == nil {
			t.Fatalf("normalized query rejected but original accepted: %s", q.Where)
		}
		if !sameRelation(rel, nrel) {
			t.Fatalf("normalization changed the answer:\n  original:   %v\n  normalized: %v\n  formula: %s",
				relKeys(rel), relKeys(nrel), q.Where)
		}

		// Tri-state partition, when rows correspond to instantiations.
		if !targetsCoverFreeVars(q, ctx) {
			return
		}
		neg := *q
		neg.Where = ftl.Not{F: q.Where}
		negRel, _ := fuzzEval(&neg)
		if negRel == nil {
			return
		}
		pos := timesByKey(rel)
		for key, negTimes := range timesByKey(negRel) {
			posTimes := pos[key]
			if !posTimes.Intersect(negTimes).IsEmpty() {
				t.Fatalf("instantiation %s satisfies both f and NOT f at %v (f: %s)",
					key, posTimes.Intersect(negTimes), q.Where)
			}
			if !posTimes.Union(negTimes).Equal(temporal.NewSet(w)) {
				t.Fatalf("instantiation %s: f ∪ NOT f misses ticks of window %v (f: %s, got %v)",
					key, w, q.Where, posTimes.Union(negTimes))
			}
		}
	})
}

// fuzzFleet builds the small fixed database every fuzz execution evaluates
// against: deterministic, three vehicles, tiny horizon so pathological
// temporal nests stay cheap.
func fuzzFleet() *Context {
	ctx := randomScenario(rand.New(rand.NewSource(42)), 3)
	ctx.Now = 2
	ctx.Horizon = 8
	ctx.MaxAssignStates = 8
	ctx.BisectSamples = 32
	ctx.Domains = map[string][]Val{}
	return ctx
}

// fuzzEval binds and evaluates q over the fixed fleet, returning nil on
// any (legitimate) rejection.
func fuzzEval(q *ftl.Query) (*Relation, *Context) {
	ctx := fuzzFleet()
	if err := ctx.BindDomains(q); err != nil {
		return nil, ctx
	}
	rel, err := EvalQuery(q, ctx)
	if err != nil {
		return nil, ctx
	}
	return rel, ctx
}

// targetsCoverFreeVars reports whether every domain-bound free variable of
// the WHERE clause is a target, so relation rows are full instantiations.
func targetsCoverFreeVars(q *ftl.Query, ctx *Context) bool {
	tset := map[string]bool{}
	for _, t := range q.Targets {
		tset[t] = true
	}
	for _, v := range ftl.FreeVars(q.Where) {
		if _, bound := ctx.Domains[v]; bound && !tset[v] {
			return false
		}
	}
	return true
}

func tupleKey(tu *Tuple) string {
	parts := make([]string, len(tu.Vals))
	for i, v := range tu.Vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// timesByKey folds a relation into instantiation-key → satisfaction set.
func timesByKey(r *Relation) map[string]temporal.Set {
	out := map[string]temporal.Set{}
	for _, tu := range r.Tuples() {
		out[tupleKey(tu)] = out[tupleKey(tu)].Union(tu.Times)
	}
	return out
}

func relKeys(r *Relation) []string {
	var out []string
	for _, tu := range r.Tuples() {
		out = append(out, fmt.Sprintf("%s@%s", tupleKey(tu), tu.Times))
	}
	return out
}

func sameRelation(a, b *Relation) bool {
	ta, tb := timesByKey(a), timesByKey(b)
	if len(ta) != len(tb) {
		return false
	}
	for k, va := range ta {
		if vb, ok := tb[k]; !ok || !va.Equal(vb) {
			return false
		}
	}
	return true
}
