package query

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
)

// planKey canonicalizes a continuous-query registration to the identity of
// the maintained plan it may share.  The key is the normalized formula
// shape with bound variables renamed positionally ($0, $1, ... in
// first-appearance order) and constants lifted out of the shape into a
// parameter vector (?0, ?1, ...), combined with everything else the
// materialized answer depends on: binding classes, target positions, the
// lifted parameter values, region geometry digests, the horizon, and the
// evaluator knobs that change answers' shape or the maintenance strategy.
//
// Two registrations with equal keys have identical Answer(CQ) at every
// instant, so they can ride one sharedPlan: one evaluation/patch per
// update, fanned out to all subscriber handles.  nq must be normalized
// (ftl.NormalizeQuery), as the plan runs it.
func planKey(nq *ftl.Query, opts Options) string {
	w := &keyWriter{opts: opts, bound: map[string]string{}}
	for _, b := range nq.Bindings {
		w.b.WriteString("from ")
		w.b.WriteString(b.Class)
		w.b.WriteByte(' ')
		w.b.WriteString(w.bind(b.Var))
		w.b.WriteByte(';')
	}
	w.b.WriteString("retrieve ")
	for _, t := range nq.Targets {
		if p, ok := w.bound[t]; ok {
			w.b.WriteString(p)
		} else {
			w.b.WriteString(t)
		}
		w.b.WriteByte(',')
	}
	w.b.WriteString(";where ")
	w.formula(nq.Where)
	w.b.WriteString(";hz=")
	w.b.WriteString(strconv.FormatInt(int64(opts.horizon()), 10))
	w.b.WriteString(";mas=")
	w.b.WriteString(strconv.Itoa(opts.MaxAssignStates))
	w.b.WriteString(";params=")
	for _, p := range w.params {
		w.b.WriteString(p)
		w.b.WriteByte('\x00')
	}
	return w.b.String()
}

type keyWriter struct {
	b      strings.Builder
	opts   Options
	bound  map[string]string // source variable -> positional name
	params []string          // lifted constants, in ?N order
}

// bind assigns (or returns) the positional name of a bound variable.
func (w *keyWriter) bind(name string) string {
	if p, ok := w.bound[name]; ok {
		return p
	}
	p := "$" + strconv.Itoa(len(w.bound))
	w.bound[name] = p
	return p
}

// param lifts one constant out of the shape, writing its positional
// placeholder and recording the value in the parameter vector.
func (w *keyWriter) param(v string) {
	w.b.WriteByte('?')
	w.b.WriteString(strconv.Itoa(len(w.params)))
	w.params = append(w.params, v)
}

func (w *keyWriter) formula(f ftl.Formula) {
	switch n := f.(type) {
	case ftl.And:
		w.b.WriteString("and(")
		w.formula(n.L)
		w.b.WriteByte(',')
		w.formula(n.R)
		w.b.WriteByte(')')
	case ftl.Or:
		w.b.WriteString("or(")
		w.formula(n.L)
		w.b.WriteByte(',')
		w.formula(n.R)
		w.b.WriteByte(')')
	case ftl.Not:
		w.b.WriteString("not(")
		w.formula(n.F)
		w.b.WriteByte(')')
	case ftl.Until:
		w.b.WriteString("until(")
		w.formula(n.L)
		w.b.WriteByte(',')
		w.formula(n.R)
		w.b.WriteByte(',')
		w.optExpr(n.Within)
		w.b.WriteByte(')')
	case ftl.Nexttime:
		w.b.WriteString("next(")
		w.formula(n.F)
		w.b.WriteByte(')')
	case ftl.Eventually:
		w.b.WriteString("ev(")
		w.formula(n.F)
		w.b.WriteByte(',')
		w.optExpr(n.Within)
		w.b.WriteByte(',')
		w.optExpr(n.After)
		w.b.WriteByte(')')
	case ftl.Always:
		w.b.WriteString("alw(")
		w.formula(n.F)
		w.b.WriteByte(',')
		w.optExpr(n.For)
		w.b.WriteByte(')')
	case ftl.Assign:
		w.b.WriteString("assign(")
		w.expr(n.Term)
		w.b.WriteByte(',')
		w.b.WriteString(w.bind(n.Var))
		w.b.WriteByte(',')
		w.formula(n.Body)
		w.b.WriteByte(')')
	case ftl.Compare:
		w.b.WriteString("cmp")
		w.b.WriteString(n.Op)
		w.b.WriteByte('(')
		w.expr(n.L)
		w.b.WriteByte(',')
		w.expr(n.R)
		w.b.WriteByte(')')
	case ftl.Inside:
		w.b.WriteString("inside(")
		w.expr(n.Obj)
		w.b.WriteByte(',')
		w.expr(n.Region)
		w.b.WriteByte(')')
	case ftl.Outside:
		w.b.WriteString("outside(")
		w.expr(n.Obj)
		w.b.WriteByte(',')
		w.expr(n.Region)
		w.b.WriteByte(')')
	case ftl.WithinSphere:
		w.b.WriteString("wsph(")
		w.expr(n.Radius)
		for _, o := range n.Objs {
			w.b.WriteByte(',')
			w.expr(o)
		}
		w.b.WriteByte(')')
	case ftl.BoolLit:
		w.b.WriteString(strconv.FormatBool(n.V))
	default:
		w.b.WriteString(f.String())
	}
}

func (w *keyWriter) optExpr(e ftl.Expr) {
	if e == nil {
		w.b.WriteByte('-')
		return
	}
	w.expr(e)
}

func (w *keyWriter) expr(e ftl.Expr) {
	switch n := e.(type) {
	case ftl.Var:
		if p, ok := w.bound[n.Name]; ok {
			w.b.WriteString(p)
			return
		}
		// Free variable: resolve against the registration environment, so
		// the key identifies what the query actually evaluates against —
		// two region names with identical geometry share, the same name
		// over different geometry does not.
		if pg, ok := w.opts.Regions[n.Name]; ok {
			w.b.WriteString("region:")
			w.b.WriteString(polyDigest(pg))
			return
		}
		w.b.WriteString("free:")
		w.b.WriteString(n.Name)
	case ftl.Num:
		w.param("N" + strconv.FormatFloat(n.V, 'g', -1, 64))
	case ftl.StrLit:
		w.param("S" + n.S)
	case ftl.BoolExpr:
		w.b.WriteString("bool:")
		w.b.WriteString(strconv.FormatBool(n.V))
	case ftl.AttrRef:
		w.b.WriteString("attr(")
		w.expr(n.Obj)
		w.b.WriteByte('.')
		w.b.WriteString(strings.Join(n.Path, "."))
		w.b.WriteByte(')')
	case ftl.Bin:
		w.b.WriteString("bin")
		w.b.WriteString(n.Op)
		w.b.WriteByte('(')
		w.expr(n.L)
		w.b.WriteByte(',')
		w.expr(n.R)
		w.b.WriteByte(')')
	case ftl.Neg:
		w.b.WriteString("neg(")
		w.expr(n.E)
		w.b.WriteByte(')')
	case ftl.DistOf:
		w.b.WriteString("dist(")
		w.expr(n.A)
		w.b.WriteByte(',')
		w.expr(n.B)
		w.b.WriteByte(')')
	case ftl.SpeedOf:
		w.b.WriteString("speed(")
		w.expr(n.Attr)
		w.b.WriteByte(')')
	case ftl.TimeRef:
		w.b.WriteString("time")
	case ftl.Call:
		w.b.WriteString("call:")
		w.b.WriteString(n.Name)
		w.b.WriteByte('(')
		for _, a := range n.Args {
			w.expr(a)
			w.b.WriteByte(',')
		}
		w.b.WriteByte(')')
	default:
		w.b.WriteString(e.String())
	}
}

// polyDigest hashes a polygon's vertex list; equal geometry digests equal.
func polyDigest(pg geom.Polygon) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range pg.Vertices() {
		for _, f := range [...]float64{v.X, v.Y, v.Z} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
