package motion

import (
	"fmt"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/temporal"
)

// DynamicAttr is the paper's dynamic attribute: a value that "changes over
// time according to some given function, even if it is not explicitly
// updated" (§2.1).  A user can query the derived value At(t) or each
// sub-attribute independently.
type DynamicAttr struct {
	Value      float64       // A.value: value at UpdateTime
	UpdateTime temporal.Tick // A.updatetime: when the last explicit update occurred
	Function   Func          // A.function: offset function with f(0)=0
}

// Static wraps a plain value as a dynamic attribute with a zero function:
// the value holds until explicitly updated, like a traditional attribute.
func Static(v float64) DynamicAttr { return DynamicAttr{Value: v} }

// LinearFrom returns an attribute with value v at time t0, changing at the
// given slope per tick.
func LinearFrom(v float64, t0 temporal.Tick, slope float64) DynamicAttr {
	return DynamicAttr{Value: v, UpdateTime: t0, Function: Linear(slope)}
}

// At returns the attribute's value at tick t: A.value + A.function(t -
// A.updatetime).  This is what the DBMS returns when the attribute is
// queried at time t (§2.1).
func (a DynamicAttr) At(t temporal.Tick) float64 { return a.AtReal(float64(t)) }

// AtReal returns the value at a real-valued instant.
func (a DynamicAttr) AtReal(t float64) float64 {
	return a.Value + a.Function.Value(t-float64(a.UpdateTime))
}

// SpeedAt returns the attribute's rate of change at tick t.
func (a DynamicAttr) SpeedAt(t temporal.Tick) float64 {
	return a.Function.SlopeAt(float64(t - a.UpdateTime))
}

// Updated returns a copy explicitly updated at tick t: the value
// sub-attribute is re-based to the current value (so the trajectory stays
// continuous) and the function sub-attribute is replaced.  "An explicit
// update of a dynamic attribute may change its value sub-attribute, or its
// function sub-attribute, or both" (§2.1); SetAt covers the general case.
func (a DynamicAttr) Updated(t temporal.Tick, f Func) DynamicAttr {
	return DynamicAttr{Value: a.At(t), UpdateTime: t, Function: f}
}

// SetAt returns a copy with both sub-attributes replaced at tick t.
func (a DynamicAttr) SetAt(t temporal.Tick, value float64, f Func) DynamicAttr {
	return DynamicAttr{Value: value, UpdateTime: t, Function: f}
}

// Segment is one polynomial piece of the attribute's trajectory in the
// (time, value) plane: for absolute times in [T0, T1] the attribute's value
// is V0 + Slope*(t-T0) + Accel*(t-T0)^2/2.  Segments are what the §4 index
// stores: "the method plots all the functions representing the way a
// dynamic attribute A changes with time".  Linear motion has Accel == 0.
type Segment struct {
	T0, T1 float64 // absolute time span
	V0     float64 // value at T0
	Slope  float64 // instantaneous rate of change at T0
	Accel  float64 // constant acceleration over the segment
}

// ValueAt returns the segment's value at absolute time t.
func (s Segment) ValueAt(t float64) float64 {
	d := t - s.T0
	return s.V0 + s.Slope*d + s.Accel*d*d/2
}

// SlopeAt returns the instantaneous rate of change at absolute time t.
func (s Segment) SlopeAt(t float64) float64 { return s.Slope + s.Accel*(t-s.T0) }

// Bounds returns the segment's bounding box in the (time, value) plane; a
// quadratic segment's extremum (its vertex) is accounted for when it falls
// inside the span.
func (s Segment) Bounds() (tMin, tMax, vMin, vMax float64) {
	v1 := s.ValueAt(s.T1)
	vMin, vMax = s.V0, v1
	if vMin > vMax {
		vMin, vMax = vMax, vMin
	}
	if s.Accel != 0 {
		tv := s.T0 - s.Slope/s.Accel // vertex: where the slope is zero
		if tv > s.T0 && tv < s.T1 {
			v := s.ValueAt(tv)
			if v < vMin {
				vMin = v
			}
			if v > vMax {
				vMax = v
			}
		}
	}
	return s.T0, s.T1, vMin, vMax
}

// Sub returns the sub-segment of s over [t0, t1] (which must lie within
// [T0, T1]), re-anchored at t0.
func (s Segment) Sub(t0, t1 float64) Segment {
	return Segment{T0: t0, T1: t1, V0: s.ValueAt(t0), Slope: s.SlopeAt(t0), Accel: s.Accel}
}

// Trajectory returns the attribute's straight segments over the absolute
// time window [from, to].
func (a DynamicAttr) Trajectory(from, to float64) []Segment {
	var out []Segment
	a.eachSegment(from, to, func(s Segment) { out = append(out, s) })
	return out
}

// eachSegment calls fn with each polynomial segment of the attribute's
// trajectory over [from, to], in time order.
func (a DynamicAttr) eachSegment(from, to float64, fn func(Segment)) {
	if from > to {
		return
	}
	pieces := a.Function.Pieces()
	base := float64(a.UpdateTime)
	if len(pieces) == 0 {
		fn(Segment{T0: from, T1: to, V0: a.Value, Slope: 0})
		return
	}
	for i, p := range pieces {
		t0 := base + p.Start
		t1 := to
		if i+1 < len(pieces) {
			t1 = base + pieces[i+1].Start
		}
		if i == 0 {
			t0 = min(t0, from) // extrapolate the first piece backwards
		}
		s, e := max(t0, from), min(t1, to)
		if s > e {
			continue
		}
		fn(Segment{
			T0:    s,
			T1:    e,
			V0:    a.AtReal(s),
			Slope: p.Slope + p.Accel*(s-(base+p.Start)),
			Accel: p.Accel,
		})
	}
}

// Range bounds the attribute's values over the absolute time window
// [from, to]: the motion envelope both the query engine's spatial
// relevance filter and the database's grid index are built from.
func (a DynamicAttr) Range(from, to float64) (lo, hi float64) {
	lo, hi = a.Value, a.Value
	first := true
	a.eachSegment(from, to, func(s Segment) {
		_, _, vMin, vMax := s.Bounds()
		if first {
			lo, hi, first = vMin, vMax, false
			return
		}
		lo, hi = min(lo, vMin), max(hi, vMax)
	})
	return lo, hi
}

// RangeTimes returns the real times t in [from, to] at which
// lo <= A(t) <= hi: the kinetic form of a one-dimensional range predicate,
// used both by FTL atomic predicates on dynamic attributes and by the §4
// index to turn "retrieve the objects for which currently 4 < A < 5" into
// per-object time intervals for continuous queries.
func (a DynamicAttr) RangeTimes(lo, hi, from, to float64) geom.RealSet {
	if lo > hi || from > to {
		return geom.RealSet{}
	}
	var out []geom.RealInterval
	for _, seg := range a.Trajectory(from, to) {
		out = append(out, SegRangeTimes(seg, lo, hi).Intervals()...)
	}
	return geom.NewRealSet(out...)
}

// SegRangeTimes solves lo <= seg(t) <= hi on [seg.T0, seg.T1], exactly for
// both linear and quadratic segments.
func SegRangeTimes(seg Segment, lo, hi float64) geom.RealSet {
	// In offsets d = t - T0: q(d) = Accel/2 d^2 + Slope d + V0.
	// lo <= q(d): (-q(d) + lo) <= 0;  q(d) <= hi: (q(d) - hi) <= 0.
	span := seg.T1 - seg.T0
	above := geom.QuadraticLE(-seg.Accel/2, -seg.Slope, lo-seg.V0, 0, span)
	below := geom.QuadraticLE(seg.Accel/2, seg.Slope, seg.V0-hi, 0, span)
	shifted := above.Intersect(below)
	// Shift offsets back to absolute time.
	ivs := shifted.Intervals()
	out := make([]geom.RealInterval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, geom.RealInterval{Lo: iv.Lo + seg.T0, Hi: iv.Hi + seg.T0})
	}
	return geom.NewRealSet(out...)
}

// CompareTimes returns the real times in [from, to] at which A(t) op c
// holds, for the closed operators "<=", ">=", "=".  Strict operators differ
// from their closed counterparts only on a measure-zero set, which cannot
// be represented by closed real intervals; use CompareTicks for them — on
// the discrete clock the distinction is exact.
func (a DynamicAttr) CompareTimes(op string, c, from, to float64) (geom.RealSet, error) {
	// inf is large enough to act as an open bound yet small enough that the
	// quadratic discriminant B^2 - 4AC cannot overflow.
	const inf = 1e150
	switch op {
	case "<=":
		return a.RangeTimes(-inf, c, from, to), nil
	case ">=":
		return a.RangeTimes(c, inf, from, to), nil
	case "=", "==":
		return a.RangeTimes(c, c, from, to), nil
	default:
		return geom.RealSet{}, fmt.Errorf("motion: operator %q needs tick semantics; use CompareTicks", op)
	}
}

// CompareTicks returns the clock ticks in window w at which A(t) op c
// holds, where op is one of "<", "<=", ">", ">=", "=", "==", "!=", "<>".
// A tick satisfies a strict predicate iff the value at that integer instant
// strictly satisfies it, so boundary ticks where A(t) == c exactly are
// excluded from "<" and ">" and from "!=".
func (a DynamicAttr) CompareTicks(op string, c float64, w temporal.Interval) (temporal.Set, error) {
	if !w.Valid() {
		return temporal.Set{}, nil
	}
	from, to := float64(w.Start), float64(w.End)
	eq := func() temporal.Set { return a.RangeTimes(c, c, from, to).Ticks(w) }
	switch op {
	case "<=", ">=", "=", "==":
		closed, err := a.CompareTimes(op, c, from, to)
		if err != nil {
			return temporal.Set{}, err
		}
		return closed.Ticks(w), nil
	case "<":
		closed, _ := a.CompareTimes("<=", c, from, to)
		return closed.Ticks(w).Subtract(eq()), nil
	case ">":
		closed, _ := a.CompareTimes(">=", c, from, to)
		return closed.Ticks(w).Subtract(eq()), nil
	case "!=", "<>":
		return eq().ComplementWithin(w), nil
	default:
		return temporal.Set{}, fmt.Errorf("motion: unknown comparison operator %q", op)
	}
}
