package geom

import (
	"math"
	"sort"

	"github.com/mostdb/most/internal/temporal"
)

// RealInterval is a closed interval of real-valued time.  Kinetic solvers
// produce these; they are then snapped to the discrete clock of the MOST
// history (one state per tick, paper §2.2) via RealSet.Ticks.
type RealInterval struct {
	Lo, Hi float64
}

// Valid reports whether the interval is non-empty.
func (ri RealInterval) Valid() bool { return ri.Lo <= ri.Hi }

// RealSet is a normalized union of disjoint closed real intervals in
// ascending order.
type RealSet struct {
	ivs []RealInterval
}

// mergeEps is the tolerance under which adjacent real intervals are
// coalesced; roots of kinetic quadratics carry floating-point noise.
const mergeEps = 1e-9

// NewRealSet normalizes arbitrary intervals into a RealSet.
func NewRealSet(ivs ...RealInterval) RealSet {
	valid := make([]RealInterval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Valid() {
			valid = append(valid, iv)
		}
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].Lo < valid[j].Lo })
	out := valid[:0]
	for _, iv := range valid {
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi+mergeEps {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return RealSet{ivs: out}
}

// Intervals returns the normalized intervals; the slice must not be
// modified.
func (s RealSet) Intervals() []RealInterval { return s.ivs }

// IsEmpty reports whether the set is empty.
func (s RealSet) IsEmpty() bool { return len(s.ivs) == 0 }

// Contains reports whether x lies in the set (within tolerance).
func (s RealSet) Contains(x float64) bool {
	for _, iv := range s.ivs {
		if x >= iv.Lo-mergeEps && x <= iv.Hi+mergeEps {
			return true
		}
	}
	return false
}

// Union returns the union of two real sets.
func (s RealSet) Union(o RealSet) RealSet {
	all := make([]RealInterval, 0, len(s.ivs)+len(o.ivs))
	all = append(all, s.ivs...)
	all = append(all, o.ivs...)
	return NewRealSet(all...)
}

// Intersect returns the intersection of two real sets.
func (s RealSet) Intersect(o RealSet) RealSet {
	var out []RealInterval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		lo := math.Max(s.ivs[i].Lo, o.ivs[j].Lo)
		hi := math.Min(s.ivs[i].Hi, o.ivs[j].Hi)
		if lo <= hi {
			out = append(out, RealInterval{lo, hi})
		}
		if s.ivs[i].Hi < o.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return RealSet{ivs: out}
}

// ComplementWithin returns [lo,hi] minus the set.
func (s RealSet) ComplementWithin(lo, hi float64) RealSet {
	var out []RealInterval
	cur := lo
	for _, iv := range s.ivs {
		if iv.Hi < lo {
			continue
		}
		if iv.Lo > hi {
			break
		}
		if iv.Lo > cur {
			out = append(out, RealInterval{cur, iv.Lo})
		}
		if iv.Hi > cur {
			cur = iv.Hi
		}
	}
	if cur < hi {
		out = append(out, RealInterval{cur, hi})
	}
	return NewRealSet(out...)
}

// Ticks snaps the real set onto the discrete clock: tick k is in the result
// iff the real instant k lies in the set, clipped to window w.  A small
// tolerance absorbs root-finding noise so a predicate that holds exactly at
// an integer instant is not dropped.
func (s RealSet) Ticks(w temporal.Interval) temporal.Set {
	switch len(s.ivs) {
	case 0:
		return temporal.Set{}
	case 1:
		return temporal.NewSet(s.ivs[0].ticks(w))
	}
	out := make([]temporal.Interval, 0, len(s.ivs))
	for _, iv := range s.ivs {
		out = append(out, iv.ticks(w))
	}
	return temporal.NewSet(out...)
}

// ticks snaps one real interval onto the clock, clipped to window w; the
// result is invalid when no tick qualifies.
func (ri RealInterval) ticks(w temporal.Interval) temporal.Interval {
	return temporal.Interval{
		Start: max(temporal.CeilTick(ri.Lo-mergeEps), w.Start),
		End:   min(temporal.FloorTick(ri.Hi+mergeEps), w.End),
	}
}
