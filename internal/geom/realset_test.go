package geom

import (
	"testing"

	"github.com/mostdb/most/internal/temporal"
)

// TestRealSetTicksAllocs pins the cost of snapping solver output onto the
// clock, the last step of every closed-form atom: nothing for an empty
// set, one allocation for a single interval.
func TestRealSetTicksAllocs(t *testing.T) {
	w := temporal.Interval{Start: 0, End: 50}
	one := NewRealSet(RealInterval{Lo: 2.5, Hi: 7.2})
	if got := testing.AllocsPerRun(100, func() { _ = RealSet{}.Ticks(w) }); got != 0 {
		t.Errorf("empty: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = one.Ticks(w) }); got > 1 {
		t.Errorf("one interval: %v allocations, want <= 1", got)
	}
}

// TestRealSetTicksEdges checks the snapping and clipping edge cases: a tick is kept
// when its instant lies in the set (within the root tolerance), inside
// the window, and snapped intervals that touch coalesce.
func TestRealSetTicksEdges(t *testing.T) {
	w := temporal.Interval{Start: 0, End: 20}
	for _, c := range []struct {
		in   RealSet
		want temporal.Set
	}{
		{RealSet{}, temporal.Set{}},
		{NewRealSet(RealInterval{Lo: 2.5, Hi: 7.2}), temporal.NewSet(temporal.Interval{Start: 3, End: 7})},
		{NewRealSet(RealInterval{Lo: 2.5, Hi: 2.7}), temporal.Set{}},
		{NewRealSet(RealInterval{Lo: 3 + 1e-10, Hi: 4 - 1e-10}), temporal.NewSet(temporal.Interval{Start: 3, End: 4})},
		{NewRealSet(RealInterval{Lo: -5, Hi: 30}), temporal.NewSet(w)},
		{NewRealSet(RealInterval{Lo: -5, Hi: -1}, RealInterval{Lo: 21, Hi: 22}), temporal.Set{}},
		{NewRealSet(RealInterval{Lo: 1, Hi: 2.5}, RealInterval{Lo: 3, Hi: 4}, RealInterval{Lo: 18.5, Hi: 25}),
			temporal.NewSet(temporal.Interval{Start: 1, End: 4}, temporal.Interval{Start: 19, End: 20})},
	} {
		if got := c.in.Ticks(w); !got.Equal(c.want) || !got.Normalized() {
			t.Errorf("%v.Ticks(%v) = %v, want %v", c.in.Intervals(), w, got, c.want)
		}
	}
}
