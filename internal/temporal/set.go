package temporal

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Set is a normalized set of ticks represented as sorted, pairwise disjoint
// and non-consecutive intervals.  This is exactly the invariant the paper's
// appendix imposes on the interval column of every relation Rg: "the
// intervals corresponding to different tuples that give identical values to
// the corresponding variables will be non-overlapping, and furthermore these
// intervals will not even be consecutive".
//
// The zero value is the empty set and ready to use.  All methods treat the
// receiver as immutable and return fresh sets.
type Set struct {
	ivs []Interval
}

// NewSet builds a normalized set from arbitrary (possibly overlapping,
// unordered, or invalid) intervals; invalid intervals are dropped and
// overlapping or consecutive ones are coalesced.  An empty set costs no
// allocation and a one-interval set one.
func NewSet(ivs ...Interval) Set {
	switch len(ivs) {
	case 0:
		return Set{}
	case 1:
		if !ivs[0].Valid() {
			return Set{}
		}
		return Set{ivs: []Interval{ivs[0]}}
	}
	valid := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Valid() {
			valid = append(valid, iv)
		}
	}
	slices.SortFunc(valid, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	out := valid[:0]
	for _, iv := range valid {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End.Add(1) {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return Set{ivs: out}
}

// SinglePoint returns the set {t}.
func SinglePoint(t Tick) Set { return Set{ivs: []Interval{Point(t)}} }

// Universe returns the set covering all representable ticks.
func Universe() Set { return Set{ivs: []Interval{{Start: MinTick, End: MaxTick}}} }

// Intervals returns the normalized intervals in ascending order.  The
// returned slice must not be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// IsEmpty reports whether the set contains no ticks.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Len returns the number of intervals (not ticks) in the set.
func (s Set) Len() int { return len(s.ivs) }

// Cardinality returns the total number of ticks in the set, saturated.
func (s Set) Cardinality() Tick {
	var n Tick
	for _, iv := range s.ivs {
		n = n.Add(iv.Len())
	}
	return n
}

// Contains reports whether tick t is in the set, in O(log n).
func (s Set) Contains(t Tick) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Min returns the earliest tick in the set; ok is false for the empty set.
func (s Set) Min() (Tick, bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[0].Start, true
}

// Max returns the latest tick in the set; ok is false for the empty set.
func (s Set) Max() (Tick, bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[len(s.ivs)-1].End, true
}

// NextAtOrAfter returns the earliest tick in the set that is >= t.
func (s Set) NextAtOrAfter(t Tick) (Tick, bool) {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= t })
	if i >= len(s.ivs) {
		return 0, false
	}
	if s.ivs[i].Start >= t {
		return s.ivs[i].Start, true
	}
	return t, true
}

// Union returns the set of ticks in s or in other.
func (s Set) Union(other Set) Set {
	merged := make([]Interval, 0, len(s.ivs)+len(other.ivs))
	merged = append(merged, s.ivs...)
	merged = append(merged, other.ivs...)
	return NewSet(merged...)
}

// Intersect returns the set of ticks present in both sets, by a linear merge.
func (s Set) Intersect(other Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if iv, ok := s.ivs[i].Intersect(other.ivs[j]); ok {
			out = append(out, iv)
		}
		if s.ivs[i].End < other.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out} // disjoint, ordered, and non-consecutive by construction
}

// Subtract returns the ticks of s that are not in other.
func (s Set) Subtract(other Set) Set {
	var out []Interval
	j := 0
	for _, iv := range s.ivs {
		cur := iv
		for j < len(other.ivs) && other.ivs[j].End < cur.Start {
			j++
		}
		k := j
		for k < len(other.ivs) && other.ivs[k].Start <= cur.End {
			hole := other.ivs[k]
			if hole.Start > cur.Start {
				out = append(out, Interval{Start: cur.Start, End: hole.Start - 1})
			}
			if hole.End >= cur.End {
				cur = Interval{Start: 1, End: 0} // emptied
				break
			}
			cur.Start = hole.End + 1
			k++
		}
		if cur.Valid() {
			out = append(out, cur)
		}
	}
	return NewSet(out...)
}

// ComplementWithin returns the ticks of window w that are not in s.  This is
// the operation negation compiles to once an instantiation is closed (the
// paper notes negation "can be incorporated"; the window is the query
// expiry horizon that keeps the result finite).
func (s Set) ComplementWithin(w Interval) Set {
	if !w.Valid() {
		return Set{}
	}
	return NewSet(w).Subtract(s)
}

// Clip restricts the set to window w.  A set already inside w is returned
// as is, and otherwise only its first and last kept intervals change, so
// clipping allocates at most once.
func (s Set) Clip(w Interval) Set {
	if !w.Valid() {
		return Set{}
	}
	i, j := 0, len(s.ivs)
	for i < j && s.ivs[i].End < w.Start {
		i++
	}
	for j > i && s.ivs[j-1].Start > w.End {
		j--
	}
	if i == j {
		return Set{}
	}
	kept := s.ivs[i:j:j]
	if kept[0].Start >= w.Start && kept[len(kept)-1].End <= w.End {
		return Set{ivs: kept}
	}
	out := slices.Clone(kept)
	out[0].Start = max(out[0].Start, w.Start)
	out[len(out)-1].End = min(out[len(out)-1].End, w.End)
	return Set{ivs: out}
}

// Shift translates every tick by d (negative d shifts earlier).  Used to
// implement Nexttime: "Nexttime f" holds at t iff f holds at t+1, so the
// satisfaction set of Nexttime f is the satisfaction set of f shifted by -1.
func (s Set) Shift(d Tick) Set {
	out := make([]Interval, 0, len(s.ivs))
	for _, iv := range s.ivs {
		out = append(out, iv.Shift(d))
	}
	return NewSet(out...)
}

// Equal reports whether the two sets contain exactly the same ticks.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != other.ivs[i] {
			return false
		}
	}
	return true
}

// Normalized reports whether the raw interval slice already satisfies the
// appendix invariant: sorted, disjoint, non-consecutive.  Always true for
// sets built through this package; exposed for property-based testing.
func (s Set) Normalized() bool {
	for i, iv := range s.ivs {
		if !iv.Valid() {
			return false
		}
		if i > 0 && iv.Start <= s.ivs[i-1].End.Add(1) {
			return false
		}
	}
	return true
}

// String renders the set as a space-separated list of intervals.
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ")
}
