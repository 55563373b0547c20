package eval

import (
	"sort"

	"github.com/mostdb/most/internal/pmap"
)

// Delta is the instantiation-level difference between two relations over
// the same columns: Gone holds the old tuples of the instantiations that
// left, Put the new tuples of those that arrived or whose satisfaction set
// changed.  Both lists are in canonical instantiation order (by Key), and
// no instantiation appears in both.  A Delta never aliases a mutable
// relation: its tuples may be retained and shared freely.
type Delta struct {
	Gone []*Tuple
	Put  []*Tuple
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Gone) == 0 && len(d.Put) == 0 }

// Len is the number of instantiations the delta touches.
func (d Delta) Len() int { return len(d.Gone) + len(d.Put) }

// each visits every tuple with its key (in key order when frozen) until fn
// returns false, without copying the storage.
func (r *Relation) each(fn func(key string, t *Tuple) bool) {
	if r.frozen {
		r.tree.Ascend(fn)
		return
	}
	for k, t := range r.tuples {
		if !fn(k, t) {
			return
		}
	}
}

// Freeze returns r in the frozen form: r itself when already frozen,
// otherwise a frozen copy built in O(n log n) (the sort of the keys).
func (r *Relation) Freeze() *Relation {
	if r.frozen {
		return r
	}
	keys := make([]string, 0, len(r.tuples))
	for k := range r.tuples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]*Tuple, len(keys))
	for i, k := range keys {
		t := r.tuples[k]
		vals[i] = &Tuple{Vals: t.Vals, Times: t.Times}
	}
	return &Relation{Cols: r.Cols, tree: pmap.FromSorted(keys, vals), frozen: true}
}

// Diff returns the delta taking old to new, which must have the same
// columns in the same order.  O(|old| + |new|): a full reevaluation's
// answer is compared against the installed one tuple by tuple.
func Diff(old, new *Relation) Delta {
	var d Delta
	var gone, put []string
	old.each(func(k string, t *Tuple) bool {
		if _, ok := new.get(k); !ok {
			gone = append(gone, k)
			d.Gone = append(d.Gone, &Tuple{Vals: t.Vals, Times: t.Times})
		}
		return true
	})
	new.each(func(k string, t *Tuple) bool {
		if ot, ok := old.get(k); !ok || !ot.Times.Equal(t.Times) {
			put = append(put, k)
			d.Put = append(d.Put, &Tuple{Vals: t.Vals, Times: t.Times})
		}
		return true
	})
	sortByKeys(gone, d.Gone)
	sortByKeys(put, d.Put)
	return d
}

// ReplaceDelta returns the delta that removes the tuples under oldKeys from
// r and installs repl in their place: every key of oldKeys missing from
// repl is gone, every tuple of repl that is new to r or differs from r's
// is put, and tuples repl reproduces exactly drop out.  oldKeys may repeat
// a key; repl must have r's columns in r's order.  O((|oldKeys| + |repl|)
// log |r|) on a frozen r.
func (r *Relation) ReplaceDelta(oldKeys []string, repl *Relation) Delta {
	var d Delta
	var gone, put []string
	for _, k := range oldKeys {
		if _, ok := repl.get(k); ok {
			continue
		}
		if t, ok := r.get(k); ok {
			gone = append(gone, k)
			d.Gone = append(d.Gone, &Tuple{Vals: t.Vals, Times: t.Times})
		}
	}
	repl.each(func(k string, t *Tuple) bool {
		if ot, ok := r.get(k); !ok || !ot.Times.Equal(t.Times) {
			put = append(put, k)
			d.Put = append(d.Put, &Tuple{Vals: t.Vals, Times: t.Times})
		}
		return true
	})
	sortByKeys(gone, d.Gone)
	for i := 1; i < len(gone); i++ {
		if gone[i] == gone[i-1] {
			gone = append(gone[:i], gone[i+1:]...)
			d.Gone = append(d.Gone[:i], d.Gone[i+1:]...)
			i--
		}
	}
	sortByKeys(put, d.Put)
	return d
}

// Patch returns a frozen relation equal to r with d applied (Gone removed,
// Put stored), sharing every part of r's tree the delta does not touch;
// r itself is unchanged.  O(|d| log |r|) when r is frozen.
func (r *Relation) Patch(d Delta) *Relation {
	tx := r.Freeze().tree.Edit()
	for _, t := range d.Gone {
		tx.Delete(encodeVals(t.Vals))
	}
	for _, t := range d.Put {
		tx.Set(encodeVals(t.Vals), t)
	}
	return &Relation{Cols: r.Cols, tree: tx.Map(), frozen: true}
}

// sortByKeys sorts keys ascending and permutes ts alongside.
func sortByKeys(keys []string, ts []*Tuple) {
	if len(keys) < 2 {
		return
	}
	sort.Sort(byKey{keys, ts})
}

type byKey struct {
	keys []string
	ts   []*Tuple
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.ts[i], b.ts[j] = b.ts[j], b.ts[i]
}
