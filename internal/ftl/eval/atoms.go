package eval

import (
	"math"
	"slices"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// This file computes the relations of atomic predicates: "for each possible
// relevant instantiation of values to the free variables in g, [a routine]
// gives us the intervals during which the relation R is satisfied.
// Clearly, this algorithm has to use the initial positions and functions
// according to which the dynamic variables change" (appendix).

// atomCols returns the free variables of the atom that act as relation
// columns: those with enumerable domains.  Free variables resolved through
// Params or Regions are constants; anything else is unbound.
func (c *Context) atomCols(f ftl.Formula) ([]string, error) {
	var cols []string
	for _, v := range ftl.FreeVars(f) {
		if _, ok := c.Domains[v]; ok {
			cols = append(cols, v)
			continue
		}
		if _, ok := c.Params[v]; ok {
			continue
		}
		if _, ok := c.Regions[v]; ok {
			continue
		}
		return nil, errf("unbound variable %q (no FROM binding, parameter, or region)", v)
	}
	return cols, nil
}

// eachInstantiation enumerates the domain product of cols in ascending
// mixed-radix order (the last column varies fastest), calling fn once per
// instantiation and counting them as eval.instantiations.  fn must not
// retain en or vals, which are reused.
func (c *Context) eachInstantiation(cols []string, fn func(en env, vals []Val) error) error {
	sizes := make([]int, len(cols))
	total := 1
	for i, col := range cols {
		sizes[i] = len(c.Domains[col])
		total *= sizes[i]
	}
	if total == 0 {
		return nil
	}
	c.Obs.Counter("eval.instantiations").Add(int64(total))
	vals := make([]Val, len(cols))
	en := env{}
	for idx := 0; idx < total; idx++ {
		rest := idx
		for i := len(cols) - 1; i >= 0; i-- {
			v := c.Domains[cols[i]][rest%sizes[i]]
			rest /= sizes[i]
			vals[i] = v
			en[cols[i]] = v
		}
		if err := fn(en, vals); err != nil {
			return err
		}
	}
	return nil
}

// evalAtom computes the relation of an atomic formula by solving it per
// instantiation, in instantiation order.
func (c *Context) evalAtom(f ftl.Formula, solve func(env) (temporal.Set, error)) (*Relation, error) {
	cols, err := c.atomCols(f)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(cols...)
	err = c.eachInstantiation(cols, func(en env, vals []Val) error {
		set, err := solve(en)
		if err != nil {
			return err
		}
		rel.Add(vals, set)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// ---- comparisons ----

func (c *Context) evalCompare(n ftl.Compare) (*Relation, error) {
	if d, op, k, ok := c.distAtom(n); ok {
		return c.evalDistAtom(n, d, op, k)
	}
	return c.evalAtom(n, func(en env) (temporal.Set, error) {
		l, err := c.evalTerm(n.L, en)
		if err != nil {
			return temporal.Set{}, err
		}
		r, err := c.evalTerm(n.R, en)
		if err != nil {
			return temporal.Set{}, err
		}
		return c.compareSets(n.Op, l, r)
	})
}

// compareSets returns the ticks at which "l op r" holds.
func (c *Context) compareSets(op string, l, r termVal) (temporal.Set, error) {
	w := c.Window()
	// Non-numeric constants compare directly.
	if l.isConst && r.isConst && (l.c.Kind != ValNum || r.c.Kind != ValNum) {
		ok, err := constCompare(op, l.c, r.c)
		if err != nil {
			return temporal.Set{}, err
		}
		if ok {
			return temporal.NewSet(w), nil
		}
		return temporal.Set{}, nil
	}
	if !l.numeric() || !r.numeric() {
		return temporal.Set{}, errf("comparison %q needs numeric or constant operands", op)
	}
	// Exact piecewise-linear difference.
	if l.segs != nil && r.segs != nil {
		diff := mergeSegs(l.segs, r.segs, -1)
		return plCompare(diff, op, w)
	}
	// Generic: bisection on h(t) = l(t) - r(t).
	lf, rf := l.fn, r.fn
	h := func(t float64) float64 { return lf(t) - rf(t) }
	return c.genericCompare(op, h)
}

func constCompare(op string, a, b Val) (bool, error) {
	cmp := a.Compare(b)
	switch op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	default:
		return false, errf("unknown comparison operator %q", op)
	}
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// plCompare solves "diff(t) op 0" for a piecewise-linear diff, with exact
// strictness at ticks.
func plCompare(diff []motion.Segment, op string, w temporal.Interval) (temporal.Set, error) {
	closedLE := func() geom.RealSet {
		var out []geom.RealInterval
		for _, s := range diff {
			out = append(out, solveSegLE(s)...)
		}
		return geom.NewRealSet(out...)
	}
	closedGE := func() geom.RealSet {
		var out []geom.RealInterval
		for _, s := range diff {
			neg := motion.Segment{T0: s.T0, T1: s.T1, V0: -s.V0, Slope: -s.Slope, Accel: -s.Accel}
			out = append(out, solveSegLE(neg)...)
		}
		return geom.NewRealSet(out...)
	}
	eqTicks := func() temporal.Set {
		return closedLE().Intersect(closedGE()).Ticks(w)
	}
	switch op {
	case "<=":
		return closedLE().Ticks(w), nil
	case ">=":
		return closedGE().Ticks(w), nil
	case "<":
		return closedLE().Ticks(w).Subtract(eqTicks()), nil
	case ">":
		return closedGE().Ticks(w).Subtract(eqTicks()), nil
	case "=":
		return eqTicks(), nil
	case "!=":
		return eqTicks().ComplementWithin(w), nil
	default:
		return temporal.Set{}, errf("unknown comparison operator %q", op)
	}
}

// solveSegLE returns {t in [T0,T1] : seg(t) <= 0}, exactly for linear and
// quadratic segments.
func solveSegLE(s motion.Segment) []geom.RealInterval {
	set := geom.QuadraticLE(s.Accel/2, s.Slope, s.V0, 0, s.T1-s.T0)
	ivs := set.Intervals()
	out := make([]geom.RealInterval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, geom.RealInterval{Lo: iv.Lo + s.T0, Hi: iv.Hi + s.T0})
	}
	return out
}

// ---- DIST joins ----

// distMargin scales the envelope prune's safety margin: a pair is decided
// from its envelopes only when they are farther apart than k by more than
// distMargin times the magnitude of the coordinates and of k (at least 1).
// That is far above the rounding of the envelopes, so a decided pair is
// truly apart, and above the tolerances of the exact solve, which answers
// such a pair the same way — except at k near 0, where the solve counts
// objects within 1e-6 of each other as touching and the prune answers as
// the §3.3 semantics does.
const distMargin = 1e-9

// distAtom reports whether n is DIST(x, y) op k with x and y variables and
// k a numeric constant — a term over no enumerable variable — returning the
// DIST term, the operator with DIST on its left, and k.
func (c *Context) distAtom(n ftl.Compare) (d ftl.DistOf, op string, k float64, ok bool) {
	op, kx := n.Op, n.R
	if d, ok = n.L.(ftl.DistOf); !ok {
		if d, ok = n.R.(ftl.DistOf); !ok {
			return d, "", 0, false
		}
		op, kx = flipOp(n.Op), n.L
	}
	_, aVar := d.A.(ftl.Var)
	_, bVar := d.B.(ftl.Var)
	if !aVar || !bVar {
		return d, "", 0, false
	}
	var vars []string
	collectTermVars(kx, &vars)
	for _, v := range vars {
		if _, enum := c.Domains[v]; enum {
			return d, "", 0, false
		}
	}
	tv, err := c.evalTerm(kx, env{})
	if err != nil || !tv.isConst || tv.c.Kind != ValNum {
		return d, "", 0, false
	}
	return d, op, tv.c.Num, true
}

// distEnd is one object a DIST atom measures from, resolved once per
// atom: its position, its motion envelope over the window (a bounding
// box of the trajectory) and, once a pair needs the exact solve, its
// linear spans over the window.
type distEnd struct {
	val    Val
	pos    motion.Position
	lo, hi [3]float64
	mag    float64 // the largest coordinate magnitude of the envelope
	spans  []motion.Span
}

// distEnds resolves every value of variable name — its domain, or its
// parameter — to a distEnd over [lo, hi].
func (c *Context) distEnds(name string, lo, hi float64) ([]distEnd, error) {
	dom, ok := c.Domains[name]
	if !ok {
		v, isParam := c.Params[name]
		if !isParam {
			return nil, errf("unbound variable %q", name)
		}
		dom = []Val{v}
	}
	ends := make([]distEnd, len(dom))
	for i, v := range dom {
		obj, err := c.object(name, v)
		if err != nil {
			return nil, err
		}
		pos, err := obj.Position()
		if err != nil {
			return nil, err
		}
		e := &ends[i]
		e.val, e.pos = v, pos
		for ax, a := range [3]motion.DynamicAttr{pos.X, pos.Y, pos.Z} {
			e.lo[ax], e.hi[ax] = a.Range(lo, hi)
			e.mag = max(e.mag, math.Abs(e.lo[ax]), math.Abs(e.hi[ax]))
		}
	}
	return ends, nil
}

// apart reports whether the envelopes of a and b are farther apart than k
// by the margin: then DIST(a, b) > k at every instant of the window.
func apart(a, b *distEnd, k float64) bool {
	var gap2 float64
	for ax := range a.lo {
		d := max(a.lo[ax]-b.hi[ax], b.lo[ax]-a.hi[ax], 0)
		gap2 += d * d
	}
	return math.Sqrt(gap2) > k+distMargin*max(1, math.Abs(k), a.mag, b.mag)
}

// evalDistAtom computes the relation of DIST(x, y) op k — a filter, then
// refine join.  Each value of x and of y is resolved to its object,
// position and motion envelope once, not once per pair.  A pair whose
// envelopes are farther apart than k is decided in closed form: DIST
// stays above k all window, so <, <= and = hold at no tick and >, >= and
// != at every tick.  Only the remaining pairs are solved exactly
// (distCompare).  x and y may be one variable (the pairs are then the
// diagonal) and either may be a parameter (a one-value domain).  The
// pairs the envelopes decide are counted as eval.dist_pruned.
func (c *Context) evalDistAtom(n ftl.Compare, d ftl.DistOf, op string, k float64) (*Relation, error) {
	cols, err := c.atomCols(n)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(cols...)
	total := 1
	for _, col := range cols {
		total *= len(c.Domains[col])
	}
	if total == 0 {
		return rel, nil
	}
	w := c.Window()
	lo, hi := float64(w.Start), float64(w.End)
	x, y := d.A.(ftl.Var).Name, d.B.(ftl.Var).Name
	xs, err := c.distEnds(x, lo, hi)
	if err != nil {
		return nil, err
	}
	ys := xs
	if y != x {
		if ys, err = c.distEnds(y, lo, hi); err != nil {
			return nil, err
		}
	}
	var whole temporal.Set // the answer of a pruned pair
	switch op {
	case ">", ">=", "!=":
		whole = temporal.NewSet(w)
	case "<", "<=", "=":
	default:
		return nil, errf("unknown comparison operator %q", op)
	}
	c.Obs.Counter("eval.instantiations").Add(int64(total))
	xCol, yCol := slices.Index(cols, x), slices.Index(cols, y)
	vals := make([]Val, len(cols))
	pruned := 0
	pair := func(a, b *distEnd) error {
		if xCol >= 0 {
			vals[xCol] = a.val
		}
		if yCol >= 0 {
			vals[yCol] = b.val
		}
		if apart(a, b, k) {
			pruned++
			rel.Add(vals, whole)
			return nil
		}
		set, err := c.distCompare(op, a.spansOver(lo, hi), b.spansOver(lo, hi), k)
		if err != nil {
			return err
		}
		rel.Add(vals, set)
		return nil
	}
	for i := range xs {
		row := ys
		if y == x {
			row = xs[i : i+1]
		}
		for j := range row {
			if err := pair(&xs[i], &row[j]); err != nil {
				return nil, err
			}
		}
	}
	c.Obs.Counter("eval.dist_pruned").Add(int64(pruned))
	return rel, nil
}

// spansOver returns the end's linear spans over [lo, hi], computing them
// on first use.
func (e *distEnd) spansOver(lo, hi float64) []motion.Span {
	if e.spans == nil {
		e.spans = e.pos.MovingPointsOver(lo, hi)
	}
	return e.spans
}

// distCompare solves DIST(a,b) op c exactly per linear span of the two
// positions, given as their spans over the window.
func (c *Context) distCompare(op string, sa, sb []motion.Span, radius float64) (temporal.Set, error) {
	w := c.Window()
	lo, hi := float64(w.Start), float64(w.End)
	within := geom.RealSet{} // DIST <= radius
	eq := geom.RealSet{}     // DIST == radius (boundary instants)
	forSpans(sa, sb, lo, hi, func(ma, mb geom.MovingPoint, s0, s1 float64) {
		in := geom.DistWithinTimes(ma, mb, radius, s0, s1)
		within = within.Union(in)
		// Equality instants: boundary of the within set inside the span.
		for _, iv := range in.Intervals() {
			if iv.Lo > s0 {
				eq = eq.Union(geom.NewRealSet(geom.RealInterval{Lo: iv.Lo, Hi: iv.Lo}))
			}
			if iv.Hi < s1 {
				eq = eq.Union(geom.NewRealSet(geom.RealInterval{Lo: iv.Hi, Hi: iv.Hi}))
			}
			// A span where the distance is constantly equal to radius.
			if geom.Dist(ma.At((s0+s1)/2), mb.At((s0+s1)/2)) == radius && iv.Lo <= s0 && iv.Hi >= s1 {
				eq = eq.Union(geom.NewRealSet(iv))
			}
		}
	})
	eqT := eq.Ticks(w)
	switch op {
	case "<=":
		return within.Ticks(w), nil
	case "<":
		return within.Ticks(w).Subtract(eqT), nil
	case ">=":
		return within.ComplementWithin(lo, hi).Ticks(w).Union(eqT), nil
	case ">":
		return within.ComplementWithin(lo, hi).Ticks(w).Subtract(eqT), nil
	case "=":
		return eqT, nil
	case "!=":
		return eqT.ComplementWithin(w), nil
	default:
		return temporal.Set{}, errf("unknown comparison operator %q", op)
	}
}

// forSpans splits [lo,hi] at the breakpoints of both objects' spans and
// invokes fn with the exact linear motion of each object on every span.
func forSpans(sa, sb []motion.Span, lo, hi float64, fn func(ma, mb geom.MovingPoint, s0, s1 float64)) {
	cuts := []float64{lo, hi}
	for _, s := range sa {
		if s.From > lo && s.From < hi {
			cuts = append(cuts, s.From)
		}
	}
	for _, s := range sb {
		if s.From > lo && s.From < hi {
			cuts = append(cuts, s.From)
		}
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	at := func(spans []motion.Span, t float64) geom.MovingPoint {
		for i := len(spans) - 1; i >= 0; i-- {
			if t >= spans[i].From || i == 0 {
				return spans[i].MP
			}
		}
		return geom.MovingPoint{}
	}
	for i := 0; i+1 < len(cuts); i++ {
		s0, s1 := cuts[i], cuts[i+1]
		if s1-s0 < 1e-12 && i+2 < len(cuts) {
			continue
		}
		mid := (s0 + s1) / 2
		fn(at(sa, mid), at(sb, mid), s0, s1)
	}
}

// genericCompare solves "h(t) op 0" by sampling and bisection — the
// fallback for terms with no closed form (products of trajectories,
// MIN/MAX, DIST in arithmetic).
func (c *Context) genericCompare(op string, h func(float64) float64) (temporal.Set, error) {
	w := c.Window()
	lo, hi := float64(w.Start), float64(w.End)
	samples := c.bisectSamples()
	le := func() geom.RealSet { return geom.SolveLE(h, lo, hi, samples) }
	ge := func() geom.RealSet {
		return geom.SolveLE(func(t float64) float64 { return -h(t) }, lo, hi, samples)
	}
	eqTicks := func() temporal.Set { return le().Intersect(ge()).Ticks(w) }
	switch op {
	case "<=":
		return le().Ticks(w), nil
	case ">=":
		return ge().Ticks(w), nil
	case "<":
		return le().Ticks(w).Subtract(eqTicks()), nil
	case ">":
		return ge().Ticks(w).Subtract(eqTicks()), nil
	case "=":
		return eqTicks(), nil
	case "!=":
		return eqTicks().ComplementWithin(w), nil
	default:
		return temporal.Set{}, errf("unknown comparison operator %q", op)
	}
}

// ---- spatial predicates ----

// resolveRegion maps a region expression (a variable or string naming an
// entry of ctx.Regions) to its polygon.
func (c *Context) resolveRegion(e ftl.Expr) (geom.Polygon, error) {
	var name string
	switch n := e.(type) {
	case ftl.Var:
		name = n.Name
	case ftl.StrLit:
		name = n.S
	default:
		return geom.Polygon{}, errf("region must be a name, got %s", e)
	}
	pg, ok := c.Regions[name]
	if !ok {
		return geom.Polygon{}, errf("unknown region %q", name)
	}
	return pg, nil
}

// objPosition resolves an object-variable expression to its position.
func (c *Context) objPosition(e ftl.Expr, en env) (motion.Position, error) {
	v, ok := e.(ftl.Var)
	if !ok {
		return motion.Position{}, errf("expected an object variable, got %s", e)
	}
	val, ok := c.lookupVar(en, v.Name)
	if !ok {
		return motion.Position{}, errf("unbound variable %q", v.Name)
	}
	obj, err := c.object(v.Name, val)
	if err != nil {
		return motion.Position{}, err
	}
	return obj.Position()
}

func (c *Context) insideSet(obj ftl.Expr, region ftl.Expr, en env) (temporal.Set, error) {
	pg, err := c.resolveRegion(region)
	if err != nil {
		return temporal.Set{}, err
	}
	pos, err := c.objPosition(obj, en)
	if err != nil {
		return temporal.Set{}, err
	}
	w := c.Window()
	real := geom.RealSet{}
	for _, span := range pos.MovingPointsOver(float64(w.Start), float64(w.End)) {
		real = real.Union(geom.InsideTimes(span.MP, pg, span.From, span.To))
	}
	return real.Ticks(w), nil
}

func (c *Context) evalInside(n ftl.Inside) (*Relation, error) {
	if rel, ok, err := c.insideCandidates(n); ok {
		return rel, err
	}
	return c.evalAtom(n, func(en env) (temporal.Set, error) {
		return c.insideSet(n.Obj, n.Region, en)
	})
}

// insideCandidates evaluates INSIDE(o, P) over the objects the snapshot's
// index names for P's bounding box during the window, in id order, when
// o is the atom's only column and its domain is drawn from its class
// (indexable): every other object of the class is never in P during the
// window, so its satisfaction set is empty and the relation has no tuple
// for it — §4's purpose, answering "retrieve the objects that are
// currently in the polygon P" without examining all the objects.  When a
// conjunction narrowed o's domain, the candidates are intersected with
// it.  Every candidate is still solved exactly.  ok is false when the atom
// must enumerate its whole domain instead (another shape, or a probe the
// snapshot cannot answer).
func (c *Context) insideCandidates(n ftl.Inside) (rel *Relation, ok bool, err error) {
	v, isVar := n.Obj.(ftl.Var)
	if !isVar || !c.indexable[v.Name] {
		return nil, false, nil
	}
	cols, err := c.atomCols(n)
	if err != nil || len(cols) != 1 || cols[0] != v.Name {
		return nil, false, nil
	}
	pg, err := c.resolveRegion(n.Region)
	if err != nil {
		return nil, false, nil
	}
	class := c.classOf[v.Name]
	probe := c.Span.Child("index_probe")
	ids, covered := c.Objects.Candidates(class, pg.Bounds(), c.Window())
	if !covered {
		probe.Annotate("scan", 1)
		probe.End()
		return nil, false, nil
	}
	probe.Annotate("candidates", int64(len(ids)))
	probe.End()
	c.Obs.Counter("index.snapshot_probes").Inc()
	c.Obs.Histogram("index.candidates_per_probe").Observe(int64(len(ids)))
	if dom := c.Domains[v.Name]; len(dom) < c.Objects.ClassLen(class) {
		ids = inDomain(ids, dom)
	}
	c.Obs.Counter("eval.instantiations").Add(int64(len(ids)))
	falseHits := c.Obs.Counter("index.false_hits")
	rel = NewRelation(cols...)
	vals := make([]Val, 1)
	en := env{}
	for _, id := range ids {
		vals[0] = ObjVal(id)
		en[v.Name] = vals[0]
		set, err := c.insideSet(n.Obj, n.Region, en)
		if err != nil {
			return nil, true, err
		}
		// A candidate never inside is a false hit of the probe: the cells
		// over-approximate trajectories.
		if set.IsEmpty() {
			falseHits.Inc()
		}
		rel.Add(vals, set)
	}
	return rel, true, nil
}

// inDomain returns the ids that dom holds, by merging the two id-ordered
// lists.
func inDomain(ids []most.ObjectID, dom []Val) []most.ObjectID {
	out := make([]most.ObjectID, 0, min(len(ids), len(dom)))
	for i, j := 0, 0; i < len(ids) && j < len(dom); {
		switch {
		case ids[i] < dom[j].Obj:
			i++
		case ids[i] > dom[j].Obj:
			j++
		default:
			out = append(out, ids[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func (c *Context) evalOutside(n ftl.Outside) (*Relation, error) {
	return c.evalAtom(n, func(en env) (temporal.Set, error) {
		in, err := c.insideSet(n.Obj, n.Region, en)
		if err != nil {
			return temporal.Set{}, err
		}
		return in.ComplementWithin(c.Window()), nil
	})
}

func (c *Context) evalWithinSphere(n ftl.WithinSphere) (*Relation, error) {
	return c.evalAtom(n, func(en env) (temporal.Set, error) {
		rad, err := c.evalTerm(n.Radius, en)
		if err != nil {
			return temporal.Set{}, err
		}
		if !rad.isConst || rad.c.Kind != ValNum {
			return temporal.Set{}, errf("WITHIN_SPHERE radius must be a constant number")
		}
		positions := make([]motion.Position, len(n.Objs))
		for i, o := range n.Objs {
			p, err := c.objPosition(o, en)
			if err != nil {
				return temporal.Set{}, err
			}
			positions[i] = p
		}
		w := c.Window()
		lo, hi := float64(w.Start), float64(w.End)
		// Split at every breakpoint of every position so each sub-span has
		// purely linear motion.
		cuts := []float64{lo, hi}
		spansOf := make([][]motion.Span, len(positions))
		for i, p := range positions {
			spansOf[i] = p.MovingPointsOver(lo, hi)
			for _, s := range spansOf[i] {
				if s.From > lo && s.From < hi {
					cuts = append(cuts, s.From)
				}
			}
		}
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		mpAt := func(spans []motion.Span, t float64) geom.MovingPoint {
			for i := len(spans) - 1; i >= 0; i-- {
				if t >= spans[i].From || i == 0 {
					return spans[i].MP
				}
			}
			return geom.MovingPoint{}
		}
		real := geom.RealSet{}
		for i := 0; i+1 < len(cuts); i++ {
			s0, s1 := cuts[i], cuts[i+1]
			if s1-s0 < 1e-12 && i+2 < len(cuts) {
				continue
			}
			mid := (s0 + s1) / 2
			mps := make([]geom.MovingPoint, len(positions))
			for k := range positions {
				mps[k] = mpAt(spansOf[k], mid)
			}
			real = real.Union(geom.WithinSphereTimes(rad.c.Num, mps, s0, s1, c.bisectSamples()))
		}
		return real.Ticks(w), nil
	})
}
