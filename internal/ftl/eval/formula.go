package eval

import (
	"maps"
	"math"
	"slices"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/temporal"
)

// EvalFormula computes the relation Rf of a formula: per instantiation of
// its free variables, the normalized set of ticks at which the formula is
// satisfied within the evaluation window.  This is the appendix algorithm,
// computed "inductively, for each subformula g in increasing lengths".
func (c *Context) EvalFormula(f ftl.Formula) (*Relation, error) {
	c.Obs.Counter("eval.subformulas").Inc()
	w := c.Window()
	switch n := f.(type) {
	case ftl.BoolLit:
		rel := NewRelation()
		if n.V {
			rel.Add(nil, temporal.NewSet(w))
		}
		return rel, nil

	case ftl.Compare:
		return c.evalCompare(n)
	case ftl.Inside:
		return c.evalInside(n)
	case ftl.Outside:
		return c.evalOutside(n)
	case ftl.WithinSphere:
		return c.evalWithinSphere(n)

	case ftl.And:
		return c.evalAnd(n)

	case ftl.Or:
		return c.evalBinaryAligned(n.L, n.R, func(a, b temporal.Set) temporal.Set {
			return a.Union(b)
		})

	case ftl.Implies:
		return c.EvalFormula(ftl.Or{L: ftl.Not{F: n.L}, R: n.R})

	case ftl.Not:
		inner, err := c.EvalFormula(n.F)
		if err != nil {
			return nil, err
		}
		return inner.ComplementOver(c.Domains, w)

	case ftl.Until:
		limit := temporal.MaxTick
		if n.Within != nil {
			b, err := c.constTick(n.Within)
			if err != nil {
				return nil, err
			}
			limit = b
		}
		return c.evalBinaryAligned(n.L, n.R, func(a, b temporal.Set) temporal.Set {
			return temporal.UntilWithin(a, b, limit, w)
		})

	case ftl.Nexttime:
		inner, err := c.EvalFormula(n.F)
		if err != nil {
			return nil, err
		}
		return inner.Map(func(s temporal.Set) temporal.Set {
			return temporal.Nexttime(s).Clip(w)
		}), nil

	case ftl.Eventually:
		inner, err := c.EvalFormula(n.F)
		if err != nil {
			return nil, err
		}
		switch {
		case n.Within != nil:
			b, err := c.constTick(n.Within)
			if err != nil {
				return nil, err
			}
			return inner.Map(func(s temporal.Set) temporal.Set {
				return temporal.EventuallyWithin(s, b, w)
			}), nil
		case n.After != nil:
			b, err := c.constTick(n.After)
			if err != nil {
				return nil, err
			}
			return inner.Map(func(s temporal.Set) temporal.Set {
				return temporal.EventuallyAfter(s, b, w)
			}), nil
		default:
			return inner.Map(func(s temporal.Set) temporal.Set {
				return temporal.Eventually(s, w)
			}), nil
		}

	case ftl.Always:
		inner, err := c.EvalFormula(n.F)
		if err != nil {
			return nil, err
		}
		if n.For != nil {
			b, err := c.constTick(n.For)
			if err != nil {
				return nil, err
			}
			return inner.Map(func(s temporal.Set) temporal.Set {
				return temporal.AlwaysFor(s, b, w)
			}), nil
		}
		return inner.Map(func(s temporal.Set) temporal.Set {
			return temporal.Always(s, w)
		}), nil

	case ftl.Assign:
		return c.evalAssign(n)

	default:
		return nil, errf("unsupported formula %T", f)
	}
}

// evalAnd evaluates a conjunction as a semi-join.  The conjunct whose
// enumerable columns are a subset of the other's goes first (the left one
// on a tie, or when neither is); each variable the two share is then
// narrowed to the values the first conjunct's tuples give it, and the
// other conjunct is evaluated over the narrowed domains.  Narrowing drops
// only tuples Join would drop: every relation is instantiation-local (a
// tuple's satisfaction set depends on its instantiation alone, never on
// the other values of a domain), and an instantiation with no tuple in the
// first conjunct has no tuple in the join.
func (c *Context) evalAnd(n ftl.And) (*Relation, error) {
	first, second := n.L, n.R
	lv, rv := c.enumerable(n.L), c.enumerable(n.R)
	swap := !lv.subsetOf(rv) && rv.subsetOf(lv)
	if swap {
		first, second, rv = second, first, lv
	}
	fr, err := c.EvalFormula(first)
	if err != nil {
		return nil, err
	}
	sr, err := c.narrowed(fr, rv).EvalFormula(second)
	if err != nil {
		return nil, err
	}
	if swap {
		return Join(sr, fr), nil
	}
	return Join(fr, sr), nil
}

// varSet is a set of variable names.
type varSet map[string]bool

func (s varSet) subsetOf(o varSet) bool {
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

// enumerable returns the free variables of f that have domains: the
// columns of f's relation.
func (c *Context) enumerable(f ftl.Formula) varSet {
	out := varSet{}
	for _, v := range ftl.FreeVars(f) {
		if _, ok := c.Domains[v]; ok {
			out[v] = true
		}
	}
	return out
}

// narrowed returns c with the domain of each column of rel that is in vars
// restricted to the values rel's tuples give it, in value order; c itself
// when that restricts nothing.  A narrowed variable stays indexable: its
// values are still drawn from its class in id order.
func (c *Context) narrowed(rel *Relation, vars varSet) *Context {
	var nc *Context
	for i, col := range rel.Cols {
		// A one-column relation holds one tuple per value.
		if !vars[col] || len(rel.Cols) == 1 && rel.Len() == len(c.Domains[col]) {
			continue
		}
		vals := make([]Val, 0, rel.Len())
		rel.each(func(_ string, t *Tuple) bool {
			vals = append(vals, t.Vals[i])
			return true
		})
		slices.SortFunc(vals, Val.Compare)
		vals = slices.Compact(vals)
		if len(vals) == len(c.Domains[col]) {
			continue
		}
		if nc == nil {
			cp := *c
			cp.Domains = maps.Clone(c.Domains)
			nc = &cp
		}
		nc.Domains[col] = vals
	}
	if nc == nil {
		return c
	}
	return nc
}

// evalBinaryAligned evaluates both operands, aligns them on the union of
// their columns (expanding missing variables over their domains), and
// combines per instantiation.  Used for Or and Until, where an
// instantiation missing from one operand still contributes.
func (c *Context) evalBinaryAligned(lf, rf ftl.Formula, op func(a, b temporal.Set) temporal.Set) (*Relation, error) {
	l, err := c.EvalFormula(lf)
	if err != nil {
		return nil, err
	}
	r, err := c.EvalFormula(rf)
	if err != nil {
		return nil, err
	}
	_, rOnly := alignCols(l.Cols, r.Cols)
	cols := append(append([]string{}, l.Cols...), rOnly...)
	le, err := l.Expand(cols, c.Domains)
	if err != nil {
		return nil, err
	}
	re, err := r.Expand(cols, c.Domains)
	if err != nil {
		return nil, err
	}
	return CombineAligned(le, re, op)
}

// constTick evaluates a bound expression (the c of a bounded operator) to a
// constant number of ticks.
func (c *Context) constTick(e ftl.Expr) (temporal.Tick, error) {
	tv, err := c.evalTerm(e, env{})
	if err != nil {
		return 0, err
	}
	if !tv.isConst || tv.c.Kind != ValNum {
		return 0, errf("temporal bound %s must be a constant number", e)
	}
	if tv.c.Num < 0 {
		return 0, errf("temporal bound %s is negative", e)
	}
	return temporal.Tick(math.Round(tv.c.Num)), nil
}

// evalAssign implements the assignment quantifier [x <- q] f per the
// appendix: build the relation Q of the atomic query q — per instantiation
// of q's free variables, the value of q during each interval — then join
// with Rf on x = value and intersecting intervals, and project x away.
func (c *Context) evalAssign(n ftl.Assign) (*Relation, error) {
	if _, clash := c.Domains[n.Var]; clash {
		return nil, errf("assignment variable %q shadows a bound variable", n.Var)
	}
	if _, clash := c.Params[n.Var]; clash {
		return nil, errf("assignment variable %q shadows a parameter", n.Var)
	}

	// Columns of Q: enumerable free variables of the term.
	var qcols []string
	var probe []string
	collectTermVars(n.Term, &probe)
	for _, v := range probe {
		if _, ok := c.Domains[v]; ok {
			qcols = append(qcols, v)
		} else if _, ok := c.Params[v]; !ok {
			return nil, errf("unbound variable %q in assignment term", v)
		}
	}

	q := NewRelation(append(append([]string{}, qcols...), n.Var)...)
	distinct := map[Val]bool{}
	err := c.eachInstantiation(qcols, func(en env, vals []Val) error {
		tv, err := c.evalTerm(n.Term, en)
		if err != nil {
			return err
		}
		rows, err := c.termRows(tv)
		if err != nil {
			return err
		}
		for _, row := range rows {
			distinct[row.val] = true
			q.Add(append(append([]Val{}, vals...), row.val), row.times)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Evaluate the body with the assignment variable's domain extended to
	// the values Q can produce, so atoms mentioning x stay enumerable.
	bodyCtx := *c
	bodyCtx.Domains = make(map[string][]Val, len(c.Domains)+1)
	for k, v := range c.Domains {
		bodyCtx.Domains[k] = v
	}
	dom := make([]Val, 0, len(distinct))
	for v := range distinct {
		dom = append(dom, v)
	}
	sortVals(dom)
	bodyCtx.Domains[n.Var] = dom

	body, err := bodyCtx.EvalFormula(n.Body)
	if err != nil {
		return nil, err
	}

	joined := Join(q, body) // matches on shared columns incl. x if present
	// Free variables of the whole formula: q's columns plus body's columns
	// minus the bound variable.
	outCols := append([]string{}, qcols...)
	seen := map[string]bool{}
	for _, cname := range outCols {
		seen[cname] = true
	}
	for _, cname := range body.Cols {
		if cname != n.Var && !seen[cname] {
			outCols = append(outCols, cname)
			seen[cname] = true
		}
	}
	return joined.Project(outCols)
}

// termRow is one piecewise-constant piece of an assignment term's value.
type termRow struct {
	val   Val
	times temporal.Set
}

// termRows decomposes a term's temporal value into (value, interval) rows:
// exactly for constants and piecewise-constant trajectories, per tick
// otherwise (bounded by MaxAssignStates).
func (c *Context) termRows(tv termVal) ([]termRow, error) {
	w := c.Window()
	if tv.isConst {
		return []termRow{{val: tv.c, times: temporal.NewSet(w)}}, nil
	}
	if !tv.numeric() {
		return nil, errf("assignment term must be a constant or numeric")
	}
	if tv.segs != nil {
		constant := true
		for _, s := range tv.segs {
			if s.Slope != 0 || s.Accel != 0 {
				constant = false
				break
			}
		}
		if constant {
			// A tick at a breakpoint belongs to the *following* segment
			// (the new function applies from its start instant).
			rows := make([]termRow, 0, len(tv.segs))
			for i, s := range tv.segs {
				start := temporal.CeilTick(s.T0 - 1e-9)
				var end temporal.Tick
				if i+1 < len(tv.segs) {
					end = temporal.CeilTick(tv.segs[i+1].T0-1e-9) - 1
				} else {
					end = temporal.FloorTick(s.T1 + 1e-9)
				}
				set := temporal.NewSet(temporal.Interval{Start: start, End: end}).Clip(w)
				if !set.IsEmpty() {
					rows = append(rows, termRow{val: NumVal(s.V0), times: set})
				}
			}
			return mergeRows(rows), nil
		}
	}
	// Discretize per tick.
	n := int(w.Len())
	if n > c.maxAssignStates() {
		return nil, errf("assignment term varies continuously over %d states (limit %d); raise MaxAssignStates or bind a piecewise-constant term", n, c.maxAssignStates())
	}
	rows := make([]termRow, 0, n)
	for t := w.Start; t <= w.End; t++ {
		rows = append(rows, termRow{
			val:   NumVal(tv.fn(float64(t))),
			times: temporal.SinglePoint(t),
		})
	}
	return mergeRows(rows), nil
}

// mergeRows unions rows with equal values.
func mergeRows(rows []termRow) []termRow {
	byVal := map[Val]temporal.Set{}
	order := []Val{}
	for _, r := range rows {
		if _, ok := byVal[r.val]; !ok {
			order = append(order, r.val)
		}
		byVal[r.val] = byVal[r.val].Union(r.times)
	}
	out := make([]termRow, len(order))
	for i, v := range order {
		out[i] = termRow{val: v, times: byVal[v]}
	}
	return out
}

func collectTermVars(e ftl.Expr, out *[]string) {
	seen := map[string]bool{}
	var bound []string
	collectExprVars(e, out, seen, &bound)
}

// collectExprVars mirrors ftl's internal collector for expressions.
func collectExprVars(e ftl.Expr, out *[]string, seen map[string]bool, bound *[]string) {
	switch n := e.(type) {
	case ftl.Var:
		if !seen[n.Name] {
			seen[n.Name] = true
			*out = append(*out, n.Name)
		}
	case ftl.AttrRef:
		collectExprVars(n.Obj, out, seen, bound)
	case ftl.Bin:
		collectExprVars(n.L, out, seen, bound)
		collectExprVars(n.R, out, seen, bound)
	case ftl.Neg:
		collectExprVars(n.E, out, seen, bound)
	case ftl.DistOf:
		collectExprVars(n.A, out, seen, bound)
		collectExprVars(n.B, out, seen, bound)
	case ftl.SpeedOf:
		collectExprVars(n.Attr.Obj, out, seen, bound)
	case ftl.Call:
		for _, a := range n.Args {
			collectExprVars(a, out, seen, bound)
		}
	}
}

func sortVals(vs []Val) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Compare(vs[j-1]) < 0; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
