package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSet draws a small random normalized set within [-40, 60].
func randomSet(r *rand.Rand) Set {
	n := r.Intn(6)
	ivs := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		s := Tick(r.Intn(100) - 40)
		e := s + Tick(r.Intn(12))
		ivs = append(ivs, Interval{Start: s, End: e})
	}
	return NewSet(ivs...)
}

// ticksOf materializes a set over the probe window used by brute-force checks.
func ticksOf(s Set, lo, hi Tick) map[Tick]bool {
	out := map[Tick]bool{}
	for t := lo; t <= hi; t++ {
		if s.Contains(t) {
			out[t] = true
		}
	}
	return out
}

func TestNewSetNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want string
	}{
		{"empty", nil, "{}"},
		{"sorted merge overlap", []Interval{{1, 4}, {3, 8}}, "[1 8]"},
		{"merge consecutive", []Interval{{1, 4}, {5, 8}}, "[1 8]"},
		{"keep gap", []Interval{{1, 4}, {6, 8}}, "[1 4] [6 8]"},
		{"unsorted", []Interval{{6, 8}, {1, 4}}, "[1 4] [6 8]"},
		{"drop invalid", []Interval{{5, 3}, {1, 2}}, "[1 2]"},
		{"nested", []Interval{{1, 10}, {3, 4}}, "[1 10]"},
		{"duplicate", []Interval{{1, 2}, {1, 2}}, "[1 2]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewSet(tt.in...)
			if got.String() != tt.want {
				t.Fatalf("NewSet(%v) = %s, want %s", tt.in, got, tt.want)
			}
			if !got.Normalized() {
				t.Fatalf("NewSet(%v) not normalized: %s", tt.in, got)
			}
		})
	}
}

func TestSetContainsBinarySearch(t *testing.T) {
	s := NewSet(Interval{1, 3}, Interval{7, 9}, Interval{20, 20})
	for tick, want := range map[Tick]bool{0: false, 1: true, 3: true, 4: false, 8: true, 10: false, 20: true, 21: false} {
		if got := s.Contains(tick); got != want {
			t.Errorf("Contains(%d) = %v, want %v", tick, got, want)
		}
	}
}

func TestSetOpsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const lo, hi = -50, 80
	for i := 0; i < 300; i++ {
		a, b := randomSet(r), randomSet(r)
		ta, tb := ticksOf(a, lo, hi), ticksOf(b, lo, hi)
		checks := []struct {
			name string
			got  Set
			want func(Tick) bool
		}{
			{"union", a.Union(b), func(t Tick) bool { return ta[t] || tb[t] }},
			{"intersect", a.Intersect(b), func(t Tick) bool { return ta[t] && tb[t] }},
			{"subtract", a.Subtract(b), func(t Tick) bool { return ta[t] && !tb[t] }},
			{"complement", a.ComplementWithin(Interval{lo, hi}), func(t Tick) bool { return !ta[t] }},
		}
		for _, c := range checks {
			if !c.got.Normalized() {
				t.Fatalf("case %d %s: result not normalized: %s", i, c.name, c.got)
			}
			for tick := Tick(lo); tick <= hi; tick++ {
				if got, want := c.got.Contains(tick), c.want(tick); got != want {
					t.Fatalf("case %d %s: a=%s b=%s tick=%d got %v want %v (result %s)",
						i, c.name, a, b, tick, got, want, c.got)
				}
			}
		}
	}
}

func TestSetShift(t *testing.T) {
	s := NewSet(Interval{1, 3}, Interval{7, 9})
	if got := s.Shift(2).String(); got != "[3 5] [9 11]" {
		t.Fatalf("Shift(2) = %s", got)
	}
	if got := s.Shift(-1).String(); got != "[0 2] [6 8]" {
		t.Fatalf("Shift(-1) = %s", got)
	}
	// Shift can make intervals coalesce only if it saturates; plain shift preserves gaps.
	if got := s.Shift(0); !got.Equal(s) {
		t.Fatalf("Shift(0) = %s, want %s", got, s)
	}
}

func TestSetMinMaxNext(t *testing.T) {
	s := NewSet(Interval{4, 6}, Interval{10, 12})
	if v, ok := s.Min(); !ok || v != 4 {
		t.Fatalf("Min = %d,%v", v, ok)
	}
	if v, ok := s.Max(); !ok || v != 12 {
		t.Fatalf("Max = %d,%v", v, ok)
	}
	for from, want := range map[Tick]Tick{0: 4, 4: 4, 5: 5, 7: 10, 12: 12} {
		if v, ok := s.NextAtOrAfter(from); !ok || v != want {
			t.Fatalf("NextAtOrAfter(%d) = %d,%v want %d", from, v, ok, want)
		}
	}
	if _, ok := s.NextAtOrAfter(13); ok {
		t.Fatal("NextAtOrAfter(13) should be absent")
	}
	var empty Set
	if _, ok := empty.Min(); ok {
		t.Fatal("empty Min should be absent")
	}
	if _, ok := empty.Max(); ok {
		t.Fatal("empty Max should be absent")
	}
}

func TestSetCardinality(t *testing.T) {
	s := NewSet(Interval{1, 3}, Interval{10, 10})
	if got := s.Cardinality(); got != 4 {
		t.Fatalf("Cardinality = %d, want 4", got)
	}
}

func TestSetQuickProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}

	// Union is commutative and always normalized.
	unionComm := func(seedA, seedB int64) bool {
		a := randomSet(rand.New(rand.NewSource(seedA)))
		b := randomSet(rand.New(rand.NewSource(seedB)))
		u := a.Union(b)
		return u.Equal(b.Union(a)) && u.Normalized()
	}
	if err := quick.Check(unionComm, cfg); err != nil {
		t.Error(err)
	}

	// De Morgan within a window: complement(a ∪ b) == complement(a) ∩ complement(b).
	w := Interval{-60, 90}
	deMorgan := func(seedA, seedB int64) bool {
		a := randomSet(rand.New(rand.NewSource(seedA)))
		b := randomSet(rand.New(rand.NewSource(seedB)))
		lhs := a.Union(b).ComplementWithin(w)
		rhs := a.ComplementWithin(w).Intersect(b.ComplementWithin(w))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Error(err)
	}

	// Subtract then union restores the intersection-free part: (a-b) ∪ (a∩b) == a.
	partition := func(seedA, seedB int64) bool {
		a := randomSet(rand.New(rand.NewSource(seedA)))
		b := randomSet(rand.New(rand.NewSource(seedB)))
		return a.Subtract(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(partition, cfg); err != nil {
		t.Error(err)
	}

	// Shifting forward then back is the identity away from saturation.
	shiftInv := func(seed int64, dRaw uint8) bool {
		a := randomSet(rand.New(rand.NewSource(seed)))
		d := Tick(dRaw % 50)
		return a.Shift(d).Shift(-d).Equal(a)
	}
	if err := quick.Check(shiftInv, cfg); err != nil {
		t.Error(err)
	}
}

// TestSetAllocs pins the allocation cost of the hot constructors: an empty
// set costs nothing, a one-interval set one allocation, and clipping a set
// that already lies inside the window returns it without copying.
func TestSetAllocs(t *testing.T) {
	w := Interval{Start: 0, End: 100}
	one := Interval{Start: 3, End: 9}
	s := NewSet(one, Interval{Start: 20, End: 30})
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"NewSet()", 0, func() { _ = NewSet() }},
		{"NewSet(one)", 1, func() { _ = NewSet(one) }},
		{"NewSet(invalid)", 0, func() { _ = NewSet(Interval{Start: 5, End: 4}) }},
		{"Clip inside", 0, func() { _ = s.Clip(w) }},
		{"Clip empty", 0, func() { _ = Set{}.Clip(w) }},
		{"Clip trimmed", 1, func() { _ = s.Clip(Interval{Start: 5, End: 25}) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
	if got := s.Clip(Interval{Start: 5, End: 25}); !got.Equal(NewSet(Interval{Start: 5, End: 9}, Interval{Start: 20, End: 25})) {
		t.Errorf("Clip trimmed = %v", got)
	}
	if got := s.Clip(Interval{Start: 10, End: 19}); !got.IsEmpty() {
		t.Errorf("Clip into the gap = %v, want empty", got)
	}
}
