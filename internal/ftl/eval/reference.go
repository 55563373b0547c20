package eval

import (
	"strings"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/temporal"
)

// ReferenceEval evaluates a query by the definitional semantics of §3.3,
// state by state: for every instantiation of the FROM-bound variables and
// every tick of the window it decides satisfaction recursively.  It is
// exponentially slower than the relation algorithm and exists as the
// correctness oracle the test suite cross-checks against.
func ReferenceEval(q *ftl.Query, c *Context) (*Relation, error) {
	for _, tgt := range q.Targets {
		if _, ok := c.Domains[tgt]; !ok {
			return nil, errf("target variable %q has no FROM binding", tgt)
		}
	}
	var cols []string
	for _, v := range ftl.FreeVars(q.Where) {
		if _, ok := c.Domains[v]; ok {
			cols = append(cols, v)
		}
	}
	// Targets must appear even if unused in the formula.
	seen := map[string]bool{}
	for _, cname := range cols {
		seen[cname] = true
	}
	for _, tgt := range q.Targets {
		if !seen[tgt] {
			cols = append(cols, tgt)
			seen[tgt] = true
		}
	}
	rel := NewRelation(cols...)
	w := c.Window()
	err := c.forEachInstantiation(cols, func(en env, vals []Val) error {
		var ivs []temporal.Interval
		var open bool
		var start temporal.Tick
		for t := w.Start; t <= w.End; t++ {
			sat, err := c.refSatFormula(q.Where, en, t)
			if err != nil {
				return err
			}
			if sat && !open {
				start, open = t, true
			}
			if !sat && open {
				ivs = append(ivs, temporal.Interval{Start: start, End: t - 1})
				open = false
			}
		}
		if open {
			ivs = append(ivs, temporal.Interval{Start: start, End: w.End})
		}
		rel.Add(vals, temporal.NewSet(ivs...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel.Expand(q.Targets, c.Domains)
}

// forEachInstantiation enumerates the domain product of cols.
func (c *Context) forEachInstantiation(cols []string, fn func(env, []Val) error) error {
	vals := make([]Val, len(cols))
	en := env{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(cols) {
			return fn(en, vals)
		}
		for _, v := range c.Domains[cols[i]] {
			vals[i] = v
			en[cols[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(en, cols[i])
		return nil
	}
	return rec(0)
}

// refSatFormula decides satisfaction of f at tick t under en, literally per
// the §3.3 semantics, quantifying future states over the expiry window.
func (c *Context) refSatFormula(f ftl.Formula, en env, t temporal.Tick) (bool, error) {
	w := c.Window()
	switch n := f.(type) {
	case ftl.BoolLit:
		return n.V, nil
	case ftl.And:
		l, err := c.refSatFormula(n.L, en, t)
		if err != nil || !l {
			return false, err
		}
		return c.refSatFormula(n.R, en, t)
	case ftl.Or:
		l, err := c.refSatFormula(n.L, en, t)
		if err != nil || l {
			return l, err
		}
		return c.refSatFormula(n.R, en, t)
	case ftl.Implies:
		l, err := c.refSatFormula(n.L, en, t)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return c.refSatFormula(n.R, en, t)
	case ftl.Not:
		v, err := c.refSatFormula(n.F, en, t)
		return !v, err
	case ftl.Nexttime:
		if t+1 > w.End {
			return false, nil
		}
		return c.refSatFormula(n.F, en, t+1)
	case ftl.Until:
		limit := w.End
		if n.Within != nil {
			b, err := c.constTick(n.Within)
			if err != nil {
				return false, err
			}
			if t.Add(b) < limit {
				limit = t.Add(b)
			}
		}
		for wit := t; wit <= limit; wit++ {
			r, err := c.refSatFormula(n.R, en, wit)
			if err != nil {
				return false, err
			}
			if r {
				return true, nil
			}
			l, err := c.refSatFormula(n.L, en, wit)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
		}
		return false, nil
	case ftl.Eventually:
		from, to := t, w.End
		if n.Within != nil {
			b, err := c.constTick(n.Within)
			if err != nil {
				return false, err
			}
			if t.Add(b) < to {
				to = t.Add(b)
			}
		}
		if n.After != nil {
			b, err := c.constTick(n.After)
			if err != nil {
				return false, err
			}
			from = t.Add(b)
		}
		for wit := from; wit <= to; wit++ {
			ok, err := c.refSatFormula(n.F, en, wit)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case ftl.Always:
		to := w.End
		if n.For != nil {
			b, err := c.constTick(n.For)
			if err != nil {
				return false, err
			}
			to = t.Add(b)
			if to > w.End {
				return false, nil // the window cannot witness the full span
			}
		}
		for wit := t; wit <= to; wit++ {
			ok, err := c.refSatFormula(n.F, en, wit)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case ftl.Assign:
		v, err := c.refTermAt(n.Term, en, t)
		if err != nil {
			return false, err
		}
		inner := env{}
		for k, val := range en {
			inner[k] = val
		}
		inner[n.Var] = v
		return c.refSatFormula(n.Body, inner, t)
	case ftl.Compare:
		l, err := c.refTermAt(n.L, en, t)
		if err != nil {
			return false, err
		}
		r, err := c.refTermAt(n.R, en, t)
		if err != nil {
			return false, err
		}
		return constCompare(n.Op, l, r)
	case ftl.Inside:
		return c.refInside(n.Obj, n.Region, en, t)
	case ftl.Outside:
		in, err := c.refInside(n.Obj, n.Region, en, t)
		return !in, err
	case ftl.WithinSphere:
		rad, err := c.refTermAt(n.Radius, en, t)
		if err != nil {
			return false, err
		}
		pts := make([]geom.Point, len(n.Objs))
		for i, oe := range n.Objs {
			pos, err := c.objPosition(oe, en)
			if err != nil {
				return false, err
			}
			pts[i] = pos.At(t)
		}
		return geom.WithinSphere(rad.Num, pts...), nil
	default:
		return false, errf("reference: unsupported formula %T", f)
	}
}

// refTermAt evaluates a term at a single tick.
func (c *Context) refTermAt(e ftl.Expr, en env, t temporal.Tick) (Val, error) {
	switch n := e.(type) {
	case ftl.Num:
		return NumVal(n.V), nil
	case ftl.StrLit:
		return StrVal(n.S), nil
	case ftl.BoolExpr:
		return BoolVal(n.V), nil
	case ftl.TimeRef:
		return NumVal(float64(t)), nil
	case ftl.Var:
		v, ok := c.lookupVar(en, n.Name)
		if !ok {
			return Val{}, errf("unbound variable %q", n.Name)
		}
		return v, nil
	case ftl.Neg:
		v, err := c.refTermAt(n.E, en, t)
		if err != nil {
			return Val{}, err
		}
		return NumVal(-v.Num), nil
	case ftl.Bin:
		l, err := c.refTermAt(n.L, en, t)
		if err != nil {
			return Val{}, err
		}
		r, err := c.refTermAt(n.R, en, t)
		if err != nil {
			return Val{}, err
		}
		switch n.Op {
		case "+":
			return NumVal(l.Num + r.Num), nil
		case "-":
			return NumVal(l.Num - r.Num), nil
		case "*":
			return NumVal(l.Num * r.Num), nil
		case "/":
			return NumVal(l.Num / r.Num), nil
		}
		return Val{}, errf("unknown operator %q", n.Op)
	case ftl.DistOf:
		pa, err := c.objPosition(n.A, en)
		if err != nil {
			return Val{}, err
		}
		pb, err := c.objPosition(n.B, en)
		if err != nil {
			return Val{}, err
		}
		return NumVal(geom.Dist(pa.At(t), pb.At(t))), nil
	case ftl.SpeedOf:
		tv, err := c.evalSpeed(n, en)
		if err != nil {
			return Val{}, err
		}
		return NumVal(tv.fn(float64(t))), nil
	case ftl.AttrRef:
		v, ok := n.Obj.(ftl.Var)
		if !ok {
			return Val{}, errf("attribute base must be a variable")
		}
		base, ok := c.lookupVar(en, v.Name)
		if !ok {
			return Val{}, errf("unbound variable %q", v.Name)
		}
		obj, err := c.object(v.Name, base)
		if err != nil {
			return Val{}, err
		}
		full := strings.Join(n.Path, ".")
		if _, ok := obj.Class().Attr(full); ok {
			mv, err := obj.ValueAt(full, t)
			if err != nil {
				return Val{}, err
			}
			return FromMost(mv), nil
		}
		// Sub-attributes.
		tv, err := c.evalAttrRef(n, en)
		if err != nil {
			return Val{}, err
		}
		if tv.isConst {
			return tv.c, nil
		}
		return NumVal(tv.fn(float64(t))), nil
	case ftl.Call:
		tv, err := c.evalCall(n, en)
		if err != nil {
			return Val{}, err
		}
		return NumVal(tv.fn(float64(t))), nil
	default:
		return Val{}, errf("reference: unsupported term %T", e)
	}
}

// refInside decides INSIDE at one tick.
func (c *Context) refInside(obj, region ftl.Expr, en env, t temporal.Tick) (bool, error) {
	pg, err := c.resolveRegion(region)
	if err != nil {
		return false, err
	}
	pos, err := c.objPosition(obj, en)
	if err != nil {
		return false, err
	}
	return pg.Contains(pos.At(t)), nil
}
