package eval

import (
	"math"
	"strings"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// Context supplies everything a query evaluation needs: the evaluation
// instant, the expiry horizon (§2.3 — instantaneous queries are evaluated
// on the infinite history, made finite by a "predefined (but very large)"
// expiry), the object universe, named regions, external parameters, and
// the enumerable domains of the FROM-bound variables.
type Context struct {
	Now     temporal.Tick
	Horizon temporal.Tick

	// Objects holds every referencable object's revision.  For
	// instantaneous and continuous queries this is a database snapshot;
	// for persistent queries the query engine synthesizes revisions whose
	// dynamic attributes encode the actual logged history; a pinned
	// evaluation may hold just the pinned object (most.NewSnapshot).
	Objects *most.Snapshot

	// Regions resolves polygon names used by INSIDE/OUTSIDE.
	Regions map[string]geom.Polygon

	// Params resolves free variables that are external constants.
	Params map[string]Val

	// Domains lists the candidate values of each FROM-bound variable.
	Domains map[string][]Val

	// MaxAssignStates caps per-tick discretization of a non-piecewise-
	// constant assignment term (0 means 4096).
	MaxAssignStates int

	// BisectSamples is the sampling density for predicates with no closed
	// form (0 means 512).
	BisectSamples int

	// Obs receives evaluation metrics (sub-formula counts, instantiations,
	// index probes and false hits).  Nil disables instrumentation at the
	// cost of one branch per hook.
	Obs *obs.Registry

	// Span, when non-nil, is the stage span the evaluation hangs its
	// sub-spans (index_probe, ...) off.
	Span *obs.Span

	// classOf maps each variable BindDomains bound to its FROM class, so
	// an object lookup through the variable probes that class first.
	classOf map[string]string
	// indexable marks the variables whose domain is drawn, in id order,
	// from their FROM class in Objects: every object of the class, or
	// those a conjunction narrowed it to.  An INSIDE atom over such a
	// variable enumerates only the objects the snapshot's index names
	// (Snapshot.Candidates) that are in its domain.  EvalQueryPinned
	// clears the mark for the pinned variable.
	indexable map[string]bool
}

// Window returns the evaluation window [Now, Now+Horizon].
func (c *Context) Window() temporal.Interval {
	return temporal.Interval{Start: c.Now, End: c.Now.Add(c.Horizon)}
}

func (c *Context) maxAssignStates() int {
	if c.MaxAssignStates <= 0 {
		return 4096
	}
	return c.MaxAssignStates
}

func (c *Context) bisectSamples() int {
	if c.BisectSamples <= 0 {
		return 512
	}
	return c.BisectSamples
}

// object resolves v, the value of variable name, to its object revision.
func (c *Context) object(name string, v Val) (*most.Object, error) {
	if v.Kind != ValObj {
		return nil, errf("value %s is not an object reference", v)
	}
	o, ok := c.Objects.GetIn(c.classOf[name], v.Obj)
	if !ok {
		return nil, errf("unknown object %s", v.Obj)
	}
	return o, nil
}

// env is a variable environment for one instantiation.
type env map[string]Val

// lookupVar resolves a variable: instantiation first, then parameters.
func (c *Context) lookupVar(e env, name string) (Val, bool) {
	if v, ok := e[name]; ok {
		return v, true
	}
	v, ok := c.Params[name]
	return v, ok
}

// termVal is the value of a term over the evaluation window for one
// instantiation: either a non-numeric constant, or a numeric function of
// time.  Numeric terms carry an exact piecewise-linear form when available
// (segs) and always a generic evaluator (fn).
type termVal struct {
	isConst bool
	c       Val

	segs []motion.Segment // exact piecewise-linear form; nil if unavailable
	fn   func(float64) float64
}

func constTerm(v Val) termVal { return termVal{isConst: true, c: v} }

func numConstTerm(x float64, w temporal.Interval) termVal {
	return termVal{
		isConst: true,
		c:       NumVal(x),
		segs:    []motion.Segment{{T0: float64(w.Start), T1: float64(w.End), V0: x, Slope: 0}},
		fn:      func(float64) float64 { return x },
	}
}

// numeric reports whether the term is usable in arithmetic/comparison.
func (tv termVal) numeric() bool { return tv.fn != nil }

// evalTerm computes the term's value over the window for the instantiation.
func (c *Context) evalTerm(e ftl.Expr, en env) (termVal, error) {
	w := c.Window()
	switch n := e.(type) {
	case ftl.Num:
		return numConstTerm(n.V, w), nil
	case ftl.StrLit:
		return constTerm(StrVal(n.S)), nil
	case ftl.BoolExpr:
		return constTerm(BoolVal(n.V)), nil
	case ftl.TimeRef:
		return termVal{
			segs: []motion.Segment{{T0: float64(w.Start), T1: float64(w.End), V0: float64(w.Start), Slope: 1}},
			fn:   func(t float64) float64 { return t },
		}, nil
	case ftl.Var:
		v, ok := c.lookupVar(en, n.Name)
		if !ok {
			return termVal{}, errf("unbound variable %q", n.Name)
		}
		if v.Kind == ValNum {
			return numConstTerm(v.Num, w), nil
		}
		return constTerm(v), nil
	case ftl.AttrRef:
		return c.evalAttrRef(n, en)
	case ftl.Neg:
		tv, err := c.evalTerm(n.E, en)
		if err != nil {
			return termVal{}, err
		}
		return scaleTerm(tv, -1)
	case ftl.Bin:
		return c.evalBin(n, en)
	case ftl.DistOf:
		return c.evalDist(n, en)
	case ftl.SpeedOf:
		return c.evalSpeed(n, en)
	case ftl.Call:
		return c.evalCall(n, en)
	default:
		return termVal{}, errf("unsupported term %T", e)
	}
}

// evalAttrRef resolves obj.Path: a declared attribute (static constant or
// dynamic trajectory), or a dynamic attribute's sub-attribute via a
// trailing VALUE, UPDATETIME or SPEED component (§2.1: "a user can query
// each sub-attribute independently").
func (c *Context) evalAttrRef(ref ftl.AttrRef, en env) (termVal, error) {
	v, ok := ref.Obj.(ftl.Var)
	if !ok {
		return termVal{}, errf("attribute base must be a variable, got %s", ref.Obj)
	}
	base, ok := c.lookupVar(en, v.Name)
	if !ok {
		return termVal{}, errf("unbound variable %q", v.Name)
	}
	obj, err := c.object(v.Name, base)
	if err != nil {
		return termVal{}, err
	}
	w := c.Window()
	full := strings.Join(ref.Path, ".")
	if def, ok := obj.Class().Attr(full); ok {
		if def.Kind == most.Static {
			sv, err := obj.Static(full)
			if err != nil {
				return termVal{}, err
			}
			if f, isNum := sv.AsFloat(); isNum {
				return numConstTerm(f, w), nil
			}
			return constTerm(FromMost(sv)), nil
		}
		dyn, err := obj.Dynamic(full)
		if err != nil {
			return termVal{}, err
		}
		return termVal{
			segs: dyn.Trajectory(float64(w.Start), float64(w.End)),
			fn:   dyn.AtReal,
		}, nil
	}
	// Sub-attribute access.
	if len(ref.Path) >= 2 {
		sub := strings.ToUpper(ref.Path[len(ref.Path)-1])
		baseName := strings.Join(ref.Path[:len(ref.Path)-1], ".")
		if def, ok := obj.Class().Attr(baseName); ok && def.Kind == most.Dynamic {
			dyn, err := obj.Dynamic(baseName)
			if err != nil {
				return termVal{}, err
			}
			switch sub {
			case "VALUE":
				return numConstTerm(dyn.Value, w), nil
			case "UPDATETIME":
				return numConstTerm(float64(dyn.UpdateTime), w), nil
			case "SPEED":
				return speedTerm(dyn, w), nil
			}
		}
	}
	return termVal{}, errf("class %s has no attribute %q", obj.Class().Name(), full)
}

// speedTerm builds the piecewise-constant rate of change of a dynamic
// attribute over the window.  Unlike the value trajectory, the speed is
// discontinuous at breakpoints; the new slope owns the boundary instant, so
// each earlier segment is shortened just enough that tick snapping cannot
// attribute the boundary tick to it.
func speedTerm(dyn motion.DynamicAttr, w temporal.Interval) termVal {
	traj := dyn.Trajectory(float64(w.Start), float64(w.End))
	segs := make([]motion.Segment, len(traj))
	for i, s := range traj {
		t1 := s.T1
		if i+1 < len(traj) {
			t1 = s.T1 - 1e-6
		}
		// The speed of a quadratic segment is itself linear in time.
		segs[i] = motion.Segment{T0: s.T0, T1: t1, V0: s.Slope, Slope: s.Accel}
	}
	return termVal{
		segs: segs,
		fn: func(t float64) float64 {
			return dyn.Function.SlopeAt(t - float64(dyn.UpdateTime))
		},
	}
}

func (c *Context) evalSpeed(n ftl.SpeedOf, en env) (termVal, error) {
	v, ok := n.Attr.Obj.(ftl.Var)
	if !ok {
		return termVal{}, errf("SPEED base must be a variable")
	}
	base, ok := c.lookupVar(en, v.Name)
	if !ok {
		return termVal{}, errf("unbound variable %q", v.Name)
	}
	obj, err := c.object(v.Name, base)
	if err != nil {
		return termVal{}, err
	}
	name := strings.Join(n.Attr.Path, ".")
	dyn, err := obj.Dynamic(name)
	if err != nil {
		return termVal{}, err
	}
	return speedTerm(dyn, c.Window()), nil
}

// evalDist is DIST(o1, o2) as a generic term, for DIST inside arithmetic
// or compared with a non-constant term; a comparison with a constant is an
// atom of its own (evalDistAtom).
func (c *Context) evalDist(n ftl.DistOf, en env) (termVal, error) {
	posOf := func(e ftl.Expr) (motion.Position, error) {
		v, ok := e.(ftl.Var)
		if !ok {
			return motion.Position{}, errf("DIST arguments must be object variables, got %s", e)
		}
		base, ok := c.lookupVar(en, v.Name)
		if !ok {
			return motion.Position{}, errf("unbound variable %q", v.Name)
		}
		obj, err := c.object(v.Name, base)
		if err != nil {
			return motion.Position{}, err
		}
		return obj.Position()
	}
	pa, err := posOf(n.A)
	if err != nil {
		return termVal{}, err
	}
	pb, err := posOf(n.B)
	if err != nil {
		return termVal{}, err
	}
	return termVal{
		fn: func(t float64) float64 {
			return geom.Dist(pa.AtReal(t), pb.AtReal(t))
		},
	}, nil
}

func (c *Context) evalBin(n ftl.Bin, en env) (termVal, error) {
	l, err := c.evalTerm(n.L, en)
	if err != nil {
		return termVal{}, err
	}
	r, err := c.evalTerm(n.R, en)
	if err != nil {
		return termVal{}, err
	}
	if !l.numeric() || !r.numeric() {
		return termVal{}, errf("arithmetic %q needs numeric operands", n.Op)
	}
	switch n.Op {
	case "+":
		return addTerms(l, r, 1), nil
	case "-":
		return addTerms(l, r, -1), nil
	case "*":
		// Exact when one side is constant.
		if l.isConst {
			return scaleTerm(r, l.c.Num)
		}
		if r.isConst {
			return scaleTerm(l, r.c.Num)
		}
		lf, rf := l.fn, r.fn
		return termVal{fn: func(t float64) float64 { return lf(t) * rf(t) }}, nil
	case "/":
		if r.isConst {
			if r.c.Num == 0 {
				return termVal{}, errf("division by zero")
			}
			return scaleTerm(l, 1/r.c.Num)
		}
		lf, rf := l.fn, r.fn
		return termVal{fn: func(t float64) float64 { return lf(t) / rf(t) }}, nil
	default:
		return termVal{}, errf("unknown arithmetic operator %q", n.Op)
	}
}

func (c *Context) evalCall(n ftl.Call, en env) (termVal, error) {
	args := make([]termVal, len(n.Args))
	for i, a := range n.Args {
		tv, err := c.evalTerm(a, en)
		if err != nil {
			return termVal{}, err
		}
		if !tv.numeric() {
			return termVal{}, errf("%s needs numeric arguments", n.Name)
		}
		args[i] = tv
	}
	fns := make([]func(float64) float64, len(args))
	for i, a := range args {
		fns[i] = a.fn
	}
	switch n.Name {
	case "ABS":
		return termVal{fn: func(t float64) float64 { return math.Abs(fns[0](t)) }}, nil
	case "MIN":
		return termVal{fn: func(t float64) float64 {
			m := fns[0](t)
			for _, f := range fns[1:] {
				m = math.Min(m, f(t))
			}
			return m
		}}, nil
	case "MAX":
		return termVal{fn: func(t float64) float64 {
			m := fns[0](t)
			for _, f := range fns[1:] {
				m = math.Max(m, f(t))
			}
			return m
		}}, nil
	default:
		return termVal{}, errf("unknown function %s", n.Name)
	}
}

// scaleTerm multiplies a numeric term by a constant, preserving exactness.
func scaleTerm(tv termVal, k float64) (termVal, error) {
	if !tv.numeric() {
		return termVal{}, errf("negation/scaling needs a numeric operand")
	}
	out := termVal{}
	if tv.isConst {
		out.isConst = true
		out.c = NumVal(tv.c.Num * k)
	}
	if tv.segs != nil {
		out.segs = make([]motion.Segment, len(tv.segs))
		for i, s := range tv.segs {
			out.segs[i] = motion.Segment{T0: s.T0, T1: s.T1, V0: s.V0 * k, Slope: s.Slope * k}
		}
	}
	f := tv.fn
	out.fn = func(t float64) float64 { return f(t) * k }
	return out, nil
}

// addTerms computes l + sign*r, exactly when both sides are piecewise
// linear (merging breakpoints), generically otherwise.
func addTerms(l, r termVal, sign float64) termVal {
	out := termVal{}
	if l.isConst && r.isConst {
		out.isConst = true
		out.c = NumVal(l.c.Num + sign*r.c.Num)
	}
	if l.segs != nil && r.segs != nil {
		out.segs = mergeSegs(l.segs, r.segs, sign)
	}
	lf, rf := l.fn, r.fn
	out.fn = func(t float64) float64 { return lf(t) + sign*rf(t) }
	return out
}

// mergeSegs adds two piecewise-linear trajectories over their common span,
// splitting at the union of breakpoints.
func mergeSegs(a, b []motion.Segment, sign float64) []motion.Segment {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	lo := math.Max(a[0].T0, b[0].T0)
	hi := math.Min(a[len(a)-1].T1, b[len(b)-1].T1)
	if lo > hi {
		return nil
	}
	cuts := []float64{lo, hi}
	for _, s := range a {
		if s.T0 > lo && s.T0 < hi {
			cuts = append(cuts, s.T0)
		}
	}
	for _, s := range b {
		if s.T0 > lo && s.T0 < hi {
			cuts = append(cuts, s.T0)
		}
	}
	// Insertion sort + dedupe (tiny lists).
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	cover := func(segs []motion.Segment, t float64) motion.Segment {
		for i := len(segs) - 1; i >= 0; i-- {
			if t >= segs[i].T0 || i == 0 {
				return segs[i]
			}
		}
		return motion.Segment{}
	}
	var out []motion.Segment
	for i := 0; i+1 < len(cuts); i++ {
		t0, t1 := cuts[i], cuts[i+1]
		if t1-t0 < 1e-12 && i+2 < len(cuts) {
			continue
		}
		// A breakpoint instant belongs to the following piece (an input may
		// be discontinuous there, e.g. a SPEED term).  Shave non-final
		// pieces by less than a tick so tick snapping cannot claim the
		// boundary for the earlier piece; for continuous inputs the next
		// piece starts at the same value, so nothing is lost.
		t1out := t1
		if i+2 < len(cuts) {
			t1out = t1 - 1e-6
			if t1out < t0 {
				t1out = t0
			}
		}
		mid := (t0 + t1) / 2
		sa := cover(a, mid)
		sb := cover(b, mid)
		out = append(out, motion.Segment{
			T0:    t0,
			T1:    t1out,
			V0:    sa.ValueAt(t0) + sign*sb.ValueAt(t0),
			Slope: sa.SlopeAt(t0) + sign*sb.SlopeAt(t0),
			Accel: sa.Accel + sign*sb.Accel,
		})
	}
	return out
}
