// Package pmap is a persistent sorted map from ordered keys to values: a
// copy-on-write B+tree whose versions share every node a batch of edits
// does not touch.  A batch (Txn) copies the root-to-leaf path of each key
// it writes the first time it writes there and mutates its own copies in
// place afterwards, so k edits against an n-entry map cost O(k log n) time
// and allocation however large the map is, and the map they started from
// is never changed.  Iteration is in ascending key order (the < order of
// the key type: byte-wise for strings, the order of sort.Strings).
//
// Maintained continuous-query answers use it so that an install touching a
// handful of instantiations copies a handful of nodes instead of the whole
// relation, while every earlier install stays intact for the readers that
// still hold it; the database keeps each class's objects in one, so a
// snapshot is a root, not a copy.
package pmap

import "cmp"

// Fanout bounds.  A node holds at most maxEntries entries (leaf values or
// child pointers) and is merged with a sibling once it falls below
// minEntries, so the tree stays O(log n) deep under any edit sequence.
const (
	maxEntries = 32
	minEntries = maxEntries / 4
	// bulkFill is how full FromSorted packs nodes, leaving room for later
	// inserts before the first split.
	bulkFill = maxEntries * 3 / 4
)

// owner identifies the batch allowed to mutate a node in place.
type owner struct{ _ byte }

type node[K cmp.Ordered, V any] struct {
	own *owner
	// keys[i] is the key of leaf entry i, or for an internal node a lower
	// bound of child i's keys that is greater than every key of child i-1
	// (keys[0] is the subtree minimum at the time the child was placed).
	keys []K
	vals []V           // leaf entries (nil for internal nodes)
	kids []*node[K, V] // children (nil for leaves)
	// shared marks keys as still those of the node this one was copied
	// from: most writes replace a value, so a copy borrows the keys and
	// takes its own (ownKeys) only before changing them.
	shared bool
}

func (n *node[K, V]) leaf() bool { return n.kids == nil }

func (n *node[K, V]) size() int { return len(n.keys) }

// Map is one immutable version of the map.  The zero Map is empty and
// ready to use; Maps are values and safe for concurrent readers.
type Map[K cmp.Ordered, V any] struct {
	root *node[K, V]
	n    int
}

// Len returns the number of entries.
func (m Map[K, V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m Map[K, V]) Get(k K) (V, bool) {
	for n := m.root; n != nil; {
		if n.leaf() {
			if i, ok := search(n.keys, k); ok {
				return n.vals[i], true
			}
			break
		}
		n = n.kids[route(n.keys, k)]
	}
	var zero V
	return zero, false
}

// search returns the index of the first key >= k (len(keys) if none) and
// whether that key is k.
func search[K cmp.Ordered](keys []K, k K) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if keys[h] < k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(keys) && keys[lo] == k
}

// route picks the child of an internal node whose key range holds k: the
// last child whose lower bound is <= k, or the first child.
func route[K cmp.Ordered](keys []K, k K) int {
	i, ok := search(keys, k)
	if !ok {
		i--
	}
	return max(i, 0)
}

// Ascend calls fn for every entry in ascending key order until fn returns
// false.
func (m Map[K, V]) Ascend(fn func(k K, v V) bool) {
	if m.root != nil {
		ascend(m.root, fn)
	}
}

func ascend[K cmp.Ordered, V any](n *node[K, V], fn func(K, V) bool) bool {
	if n.leaf() {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range n.kids {
		if !ascend(c, fn) {
			return false
		}
	}
	return true
}

// AscendFrom is Ascend starting at the first key >= lo: it visits
// O(log n) nodes before the first entry it calls fn with.
func (m Map[K, V]) AscendFrom(lo K, fn func(k K, v V) bool) {
	if m.root != nil {
		ascendFrom(m.root, lo, fn)
	}
}

func ascendFrom[K cmp.Ordered, V any](n *node[K, V], lo K, fn func(K, V) bool) bool {
	if n.leaf() {
		i, _ := search(n.keys, lo)
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	i := route(n.keys, lo)
	if !ascendFrom(n.kids[i], lo, fn) {
		return false
	}
	for _, c := range n.kids[i+1:] {
		if !ascend(c, fn) {
			return false
		}
	}
	return true
}

// FromSorted builds a map from keys in strictly ascending order and their
// values in O(n).
func FromSorted[K cmp.Ordered, V any](keys []K, vals []V) Map[K, V] {
	if len(keys) == 0 {
		return Map[K, V]{}
	}
	var level []*node[K, V]
	for start := 0; start < len(keys); {
		end := min(start+bulkFill, len(keys))
		if rest := len(keys) - end; rest > 0 && rest < minEntries {
			end = len(keys) // fold a short tail into the last leaf
		}
		level = append(level, &node[K, V]{
			keys: append([]K(nil), keys[start:end]...),
			vals: append([]V(nil), vals[start:end]...),
		})
		start = end
	}
	for len(level) > 1 {
		var up []*node[K, V]
		for start := 0; start < len(level); {
			end := min(start+bulkFill, len(level))
			if rest := len(level) - end; rest > 0 && rest < minEntries {
				end = len(level)
			}
			in := &node[K, V]{kids: append([]*node[K, V](nil), level[start:end]...)}
			for _, c := range in.kids {
				in.keys = append(in.keys, c.keys[0])
			}
			up = append(up, in)
			start = end
		}
		level = up
	}
	return Map[K, V]{root: level[0], n: len(keys)}
}

// Txn is a batch of edits on top of a Map.  Nodes the batch copies belong
// to it and are mutated in place by its later edits; nodes it has not
// touched stay shared with the Map it started from, which never changes.
// A Txn is not safe for concurrent use.
type Txn[K cmp.Ordered, V any] struct {
	own  *owner
	root *node[K, V]
	n    int
}

// Edit starts a batch of edits on m.
func (m Map[K, V]) Edit() *Txn[K, V] {
	return &Txn[K, V]{own: &owner{}, root: m.root, n: m.n}
}

// Len returns the number of entries in the batch's current state.
func (t *Txn[K, V]) Len() int { return t.n }

// Get returns the value stored under k in the batch's current state.
func (t *Txn[K, V]) Get(k K) (V, bool) { return Map[K, V]{root: t.root}.Get(k) }

// Map ends the batch and returns its result.  The Txn may keep editing
// afterwards; its next write copies again, so the returned Map is never
// changed.
func (t *Txn[K, V]) Map() Map[K, V] {
	m := Map[K, V]{root: t.root, n: t.n}
	t.own = &owner{}
	return m
}

// writable returns n itself when the batch owns it, else the batch's copy.
func (t *Txn[K, V]) writable(n *node[K, V]) *node[K, V] {
	if n.own == t.own {
		return n
	}
	c := &node[K, V]{own: t.own, keys: n.keys, shared: true}
	if n.leaf() {
		c.vals = append(make([]V, 0, len(n.vals)+1), n.vals...)
	} else {
		c.kids = append(make([]*node[K, V], 0, len(n.kids)+1), n.kids...)
	}
	return c
}

// ownKeys gives the writable node w its own keys before they change.
func ownKeys[K cmp.Ordered, V any](w *node[K, V]) {
	if w.shared {
		w.keys = append(make([]K, 0, len(w.keys)+1), w.keys...)
		w.shared = false
	}
}

// Set stores v under k, replacing any previous value.
func (t *Txn[K, V]) Set(k K, v V) {
	if t.root == nil {
		t.root = &node[K, V]{own: t.own, keys: []K{k}, vals: []V{v}}
		t.n = 1
		return
	}
	root, right, added := t.set(t.root, k, v)
	if right != nil {
		root = &node[K, V]{own: t.own, keys: []K{root.keys[0], right.keys[0]}, kids: []*node[K, V]{root, right}}
	}
	t.root = root
	if added {
		t.n++
	}
}

// set inserts into the subtree at n, returning its writable replacement,
// the new right sibling when it split, and whether the key was new.
func (t *Txn[K, V]) set(n *node[K, V], k K, v V) (*node[K, V], *node[K, V], bool) {
	if n.leaf() {
		i, ok := search(n.keys, k)
		if ok {
			w := t.writable(n)
			w.vals[i] = v
			return w, nil, false
		}
		w := t.writable(n)
		ownKeys(w)
		w.keys = insertAt(w.keys, i, k)
		w.vals = insertAt(w.vals, i, v)
		return w, t.split(w), true
	}
	i := route(n.keys, k)
	c, right, added := t.set(n.kids[i], k, v)
	w := t.writable(n)
	w.kids[i] = c
	if k < w.keys[i] {
		ownKeys(w)
		w.keys[i] = k
	}
	if right != nil {
		ownKeys(w)
		w.keys = insertAt(w.keys, i+1, right.keys[0])
		w.kids = insertAt(w.kids, i+1, right)
	}
	return w, t.split(w), added
}

// split halves an overfull writable node, returning the right half.
func (t *Txn[K, V]) split(w *node[K, V]) *node[K, V] {
	if w.size() <= maxEntries {
		return nil
	}
	ownKeys(w)
	h := w.size() / 2
	r := &node[K, V]{own: t.own, keys: append(make([]K, 0, maxEntries), w.keys[h:]...)}
	clear(w.keys[h:])
	w.keys = w.keys[:h]
	if w.leaf() {
		r.vals = append(make([]V, 0, maxEntries), w.vals[h:]...)
		clear(w.vals[h:])
		w.vals = w.vals[:h]
	} else {
		r.kids = append(make([]*node[K, V], 0, maxEntries), w.kids[h:]...)
		clear(w.kids[h:])
		w.kids = w.kids[:h]
	}
	return r
}

// Delete removes k, reporting whether it was present.
func (t *Txn[K, V]) Delete(k K) bool {
	if t.root == nil {
		return false
	}
	root, ok := t.del(t.root, k)
	if !ok {
		return false
	}
	t.n--
	for !root.leaf() && root.size() == 1 {
		root = root.kids[0]
	}
	if root.size() == 0 {
		root = nil
	}
	t.root = root
	return true
}

// del removes k from the subtree at n, returning its writable replacement.
// An underfull child is merged into a neighbour (or borrows from it).
func (t *Txn[K, V]) del(n *node[K, V], k K) (*node[K, V], bool) {
	if n.leaf() {
		i, ok := search(n.keys, k)
		if !ok {
			return n, false
		}
		w := t.writable(n)
		ownKeys(w)
		w.keys = removeAt(w.keys, i)
		w.vals = removeAt(w.vals, i)
		return w, true
	}
	i := route(n.keys, k)
	c, ok := t.del(n.kids[i], k)
	if !ok {
		return n, false
	}
	w := t.writable(n)
	w.kids[i] = c
	if c.size() < minEntries {
		t.rebalance(w, i)
	}
	return w, true
}

// rebalance fixes the underfull child i of the writable internal node w:
// an empty child is dropped, otherwise it merges with a neighbour when the
// two fit in one node and takes entries from it when they do not.
func (t *Txn[K, V]) rebalance(w *node[K, V], i int) {
	ownKeys(w)
	c := w.kids[i]
	if c.size() == 0 {
		w.keys = removeAt(w.keys, i)
		w.kids = removeAt(w.kids, i)
		return
	}
	if len(w.kids) == 1 {
		return
	}
	l := i - 1 // merge children l and l+1
	if i == 0 {
		l = 0
	}
	a, b := t.writable(w.kids[l]), t.writable(w.kids[l+1])
	ownKeys(a)
	ownKeys(b)
	w.kids[l], w.kids[l+1] = a, b
	if a.size()+b.size() <= maxEntries {
		a.keys = append(a.keys, b.keys...)
		if a.leaf() {
			a.vals = append(a.vals, b.vals...)
		} else {
			a.kids = append(a.kids, b.kids...)
		}
		w.keys = removeAt(w.keys, l+1)
		w.kids = removeAt(w.kids, l+1)
		return
	}
	// Redistribute evenly across the pair.
	keys := append(append([]K(nil), a.keys...), b.keys...)
	h := len(keys) / 2
	a.keys, b.keys = append(a.keys[:0], keys[:h]...), append(b.keys[:0], keys[h:]...)
	if a.leaf() {
		vals := append(append([]V(nil), a.vals...), b.vals...)
		a.vals, b.vals = append(a.vals[:0], vals[:h]...), append(b.vals[:0], vals[h:]...)
		clear(vals)
	} else {
		kids := append(append([]*node[K, V](nil), a.kids...), b.kids...)
		a.kids, b.kids = append(a.kids[:0], kids[:h]...), append(b.kids[:0], kids[h:]...)
	}
	w.keys[l+1] = b.keys[0]
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}
