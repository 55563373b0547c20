package eval

import (
	"sort"
	"strings"

	"github.com/mostdb/most/internal/pmap"
	"github.com/mostdb/most/internal/temporal"
)

// Relation is the appendix's Rg: for a subformula g with free variables
// x1..xl it holds, per instantiation, the normalized set of intervals
// during which g is satisfied with respect to that instantiation.  One
// Tuple aggregates all intervals of one instantiation (the appendix's
// non-consecutiveness invariant is temporal.Set's invariant).
//
// A relation has two storage forms.  The evaluator builds relations in
// the mutable form, a hash map.  Freeze and Patch produce the frozen form,
// a persistent sorted tree (internal/pmap) that a Patch shares with the
// relation it was patched from: maintained continuous-query answers are
// frozen, so an install touching k instantiations copies O(k log n) tree
// nodes and every earlier install stays intact for its readers.  Frozen
// relations are read-only: Add panics on one.
type Relation struct {
	Cols   []string
	tuples map[string]*Tuple        // mutable form (nil when frozen)
	tree   pmap.Map[string, *Tuple] // frozen form
	frozen bool
}

// Tuple is one instantiation with its satisfaction set.
type Tuple struct {
	Vals  []Val
	Times temporal.Set
}

// NewRelation returns an empty relation with the given columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: cols, tuples: map[string]*Tuple{}}
}

// Key is the canonical encoding of an instantiation: relations key their
// tuples by it, and its byte-wise order is the canonical tuple order of
// Tuples and Answers.
func Key(vals []Val) string { return encodeVals(vals) }

// get returns the tuple of the instantiation with the given key.
func (r *Relation) get(key string) (*Tuple, bool) {
	if r.frozen {
		return r.tree.Get(key)
	}
	t, ok := r.tuples[key]
	return t, ok
}

// tupleMap returns the tuples keyed by instantiation: the mutable map
// itself, or for a frozen relation a fresh map (frozen relations may be
// read concurrently, so they are never converted in place).
func (r *Relation) tupleMap() map[string]*Tuple {
	if !r.frozen {
		return r.tuples
	}
	m := make(map[string]*Tuple, r.tree.Len())
	r.tree.Ascend(func(k string, t *Tuple) bool {
		m[k] = t
		return true
	})
	return m
}

// Add unions the set into the instantiation's tuple.  Frozen relations
// are read-only (an installed answer is shared by every reader): Add on
// one panics.  Build a mutable copy with NewRelation and InsertFrom.
func (r *Relation) Add(vals []Val, times temporal.Set) {
	if r.frozen {
		panic("eval: Add on a frozen relation")
	}
	if times.IsEmpty() {
		return
	}
	key := encodeVals(vals)
	if t, ok := r.tuples[key]; ok {
		t.Times = t.Times.Union(times)
		return
	}
	cp := make([]Val, len(vals))
	copy(cp, vals)
	r.tuples[key] = &Tuple{Vals: cp, Times: times}
}

// InsertFrom adds every tuple of src (whose columns must be a permutation
// of r's) into r, unioning satisfaction sets on collision.
func (r *Relation) InsertFrom(src *Relation) error {
	aligned, err := src.Project(r.Cols)
	if err != nil {
		return err
	}
	if len(aligned.Cols) != len(src.Cols) {
		return errf("insert columns %v do not match relation %v", src.Cols, r.Cols)
	}
	for _, t := range aligned.tuples {
		r.Add(t.Vals, t.Times)
	}
	return nil
}

// Len returns the number of distinct instantiations.
func (r *Relation) Len() int {
	if r.frozen {
		return r.tree.Len()
	}
	return len(r.tuples)
}

// Tuples returns the tuples sorted by instantiation for deterministic
// iteration.
func (r *Relation) Tuples() []*Tuple {
	if r.frozen {
		out := make([]*Tuple, 0, r.tree.Len())
		r.tree.Ascend(func(_ string, t *Tuple) bool {
			out = append(out, t)
			return true
		})
		return out
	}
	keys := make([]string, 0, len(r.tuples))
	for k := range r.tuples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.tuples[k]
	}
	return out
}

// Lookup returns the satisfaction set for an instantiation.
func (r *Relation) Lookup(vals []Val) (temporal.Set, bool) {
	t, ok := r.get(encodeVals(vals))
	if !ok {
		return temporal.Set{}, false
	}
	return t.Times, true
}

// colIndex maps column names to positions.
func (r *Relation) colIndex() map[string]int {
	m := make(map[string]int, len(r.Cols))
	for i, c := range r.Cols {
		m[c] = i
	}
	return m
}

// Project groups the tuples by the given columns, unioning sets.
func (r *Relation) Project(cols []string) (*Relation, error) {
	idx := r.colIndex()
	pos := make([]int, len(cols))
	for i, c := range cols {
		p, ok := idx[c]
		if !ok {
			return nil, errf("projection column %q not in relation %v", c, r.Cols)
		}
		pos[i] = p
	}
	out := NewRelation(cols...)
	for _, t := range r.tupleMap() {
		vals := make([]Val, len(cols))
		for i, p := range pos {
			vals[i] = t.Vals[p]
		}
		out.Add(vals, t.Times)
	}
	return out, nil
}

// Map applies fn to every tuple's satisfaction set, dropping tuples whose
// result is empty.  It implements the unary temporal operators.
func (r *Relation) Map(fn func(temporal.Set) temporal.Set) *Relation {
	out := NewRelation(r.Cols...)
	for _, t := range r.tupleMap() {
		out.Add(t.Vals, fn(t.Times))
	}
	return out
}

// Join computes the appendix's conjunction join: tuples matching on common
// columns combine into a tuple over the union of columns whose set is the
// intersection of the operands' sets ("the join condition is that common
// variable attributes should be equal and the interval attributes should
// intersect").
func Join(a, b *Relation) *Relation {
	return joinWith(a, b, func(x, y temporal.Set) temporal.Set { return x.Intersect(y) })
}

// joinWith is Join with a custom per-instantiation set combiner.
func joinWith(a, b *Relation, op func(x, y temporal.Set) temporal.Set) *Relation {
	shared, bOnly := alignCols(a.Cols, b.Cols)
	outCols := append(append([]string{}, a.Cols...), bOnly...)
	out := NewRelation(outCols...)

	aIdx, bIdx := a.colIndex(), b.colIndex()
	// Index b by its shared-column projection.
	bByShared := map[string][]*Tuple{}
	for _, t := range b.tupleMap() {
		key := projectKey(t.Vals, bIdx, shared)
		bByShared[key] = append(bByShared[key], t)
	}
	bOnlyPos := make([]int, len(bOnly))
	for i, c := range bOnly {
		bOnlyPos[i] = bIdx[c]
	}
	for _, ta := range a.tupleMap() {
		key := projectKey(ta.Vals, aIdx, shared)
		for _, tb := range bByShared[key] {
			combined := op(ta.Times, tb.Times)
			if combined.IsEmpty() {
				continue
			}
			vals := make([]Val, 0, len(outCols))
			vals = append(vals, ta.Vals...)
			for _, p := range bOnlyPos {
				vals = append(vals, tb.Vals[p])
			}
			out.Add(vals, combined)
		}
	}
	return out
}

// alignCols returns the columns shared by both relations and those only in
// b, preserving order.
func alignCols(a, b []string) (shared, bOnly []string) {
	inA := map[string]bool{}
	for _, c := range a {
		inA[c] = true
	}
	for _, c := range b {
		if inA[c] {
			shared = append(shared, c)
		} else {
			bOnly = append(bOnly, c)
		}
	}
	return shared, bOnly
}

func projectKey(vals []Val, idx map[string]int, cols []string) string {
	var b strings.Builder
	for _, c := range cols {
		v := vals[idx[c]]
		b.WriteString(encodeVals([]Val{v}))
	}
	return b.String()
}

// Expand widens the relation to the given column superset by taking the
// cartesian product with the domains of the missing variables.  It is the
// alignment step before Or, Until and Not, where an instantiation absent
// from one operand still matters.  Missing variables must have enumerable
// domains (the safety condition; the paper restricts its algorithm to
// conjunctive formulas for the same reason).
func (r *Relation) Expand(cols []string, domains map[string][]Val) (*Relation, error) {
	missing := []string{}
	have := map[string]bool{}
	for _, c := range r.Cols {
		have[c] = true
	}
	for _, c := range cols {
		if !have[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return r.Project(cols)
	}
	for _, c := range missing {
		if _, ok := domains[c]; !ok {
			return nil, errf("unsafe formula: variable %q has no enumerable domain", c)
		}
	}
	out := NewRelation(cols...)
	idx := r.colIndex()
	var rec func(t *Tuple, i int, acc map[string]Val)
	rec = func(t *Tuple, i int, acc map[string]Val) {
		if i == len(missing) {
			vals := make([]Val, len(cols))
			for j, c := range cols {
				if p, ok := idx[c]; ok {
					vals[j] = t.Vals[p]
				} else {
					vals[j] = acc[c]
				}
			}
			out.Add(vals, t.Times)
			return
		}
		for _, v := range domains[missing[i]] {
			acc[missing[i]] = v
			rec(t, i+1, acc)
		}
	}
	for _, t := range r.tupleMap() {
		rec(t, 0, map[string]Val{})
	}
	return out, nil
}

// CombineAligned merges two relations with identical column sets (b's
// columns may be in a different order) by applying op per instantiation,
// treating a missing instantiation as the empty set.  It implements Or
// (op = union) and Until (op = chain merge) after Expand alignment.
func CombineAligned(a, b *Relation, op func(x, y temporal.Set) temporal.Set) (*Relation, error) {
	bAligned, err := b.Project(a.Cols)
	if err != nil {
		return nil, err
	}
	out := NewRelation(a.Cols...)
	seen := map[string]bool{}
	for key, ta := range a.tupleMap() {
		seen[key] = true
		var bt temporal.Set
		if tb, ok := bAligned.tuples[key]; ok {
			bt = tb.Times
		}
		out.Add(ta.Vals, op(ta.Times, bt))
	}
	for key, tb := range bAligned.tuples {
		if !seen[key] {
			out.Add(tb.Vals, op(temporal.Set{}, tb.Times))
		}
	}
	return out, nil
}

// ComplementOver returns, for every instantiation in the domain product of
// r's columns, the window minus the instantiation's satisfaction set —
// negation over a closed domain.
func (r *Relation) ComplementOver(domains map[string][]Val, w temporal.Interval) (*Relation, error) {
	out := NewRelation(r.Cols...)
	for _, c := range r.Cols {
		if _, ok := domains[c]; !ok {
			return nil, errf("unsafe negation: variable %q has no enumerable domain", c)
		}
	}
	var rec func(i int, vals []Val)
	rec = func(i int, vals []Val) {
		if i == len(r.Cols) {
			var cur temporal.Set
			if t, ok := r.get(encodeVals(vals)); ok {
				cur = t.Times
			}
			out.Add(vals, cur.ComplementWithin(w))
			return
		}
		for _, v := range domains[r.Cols[i]] {
			rec(i+1, append(vals, v))
		}
	}
	rec(0, make([]Val, 0, len(r.Cols)))
	return out, nil
}

// Answer is one materialized answer tuple: an instantiation and one maximal
// interval during which it satisfies the query — the (ν, begin, end) tuples
// of Answer(CQ) in §2.3.
type Answer struct {
	Vals     []Val
	Interval temporal.Interval
}

// Answers flattens the relation into Answer tuples sorted by instantiation
// then interval start.
func (r *Relation) Answers() []Answer {
	var out []Answer
	for _, t := range r.Tuples() {
		for _, iv := range t.Times.Intervals() {
			out = append(out, Answer{Vals: t.Vals, Interval: iv})
		}
	}
	return out
}

// At returns the instantiations whose satisfaction set contains tick t —
// how "the system presents to the user the instantiations of the tuples
// having an interval that contains the current clock-tick" (§3.5).
func (r *Relation) At(tick temporal.Tick) [][]Val {
	var out [][]Val
	for _, t := range r.Tuples() {
		if t.Times.Contains(tick) {
			out = append(out, t.Vals)
		}
	}
	return out
}

// Equal reports whether r and o hold exactly the same instantiations with
// identical satisfaction sets (columns compared positionally).
func (r *Relation) Equal(o *Relation) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.Cols) != len(o.Cols) || r.Len() != o.Len() {
		return false
	}
	for i, c := range r.Cols {
		if o.Cols[i] != c {
			return false
		}
	}
	equal := true
	r.each(func(k string, t *Tuple) bool {
		ot, ok := o.get(k)
		equal = ok && t.Times.Equal(ot.Times)
		return equal
	})
	return equal
}
