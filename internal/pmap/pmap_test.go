package pmap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// check compares m with the reference map: length, every lookup, and
// ascending iteration order.
func check(t *testing.T, m Map[string, int], ref map[string]int) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	keys := make([]string, 0, len(ref))
	for k, v := range ref {
		keys = append(keys, k)
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%q) = %d, %v; want %d", k, got, ok, v)
		}
	}
	sort.Strings(keys)
	// Absent keys: "" below the smallest key, and each key's immediate
	// successor, which lies between it and the next key or above the
	// largest.
	absent := []string{""}
	for _, k := range keys {
		absent = append(absent, k+"\x00")
	}
	for _, k := range absent {
		if _, in := ref[k]; in {
			continue
		}
		if got, ok := m.Get(k); ok {
			t.Fatalf("Get(%q) = %d, true on an absent key", k, got)
		}
	}
	i := 0
	m.Ascend(func(k string, v int) bool {
		if i >= len(keys) || k != keys[i] || v != ref[k] {
			t.Fatalf("Ascend entry %d = %q:%d, want %q", i, k, v, keys[i])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("Ascend visited %d entries, want %d", i, len(keys))
	}
	// AscendFrom starts at the first key >= lo, present or absent, and
	// stops when fn says so.
	for j, lo := range append(absent, keys...) {
		want := sort.SearchStrings(keys, lo)
		n := 0
		m.AscendFrom(lo, func(k string, _ int) bool {
			if k != keys[want+n] {
				t.Fatalf("AscendFrom(%q) entry %d = %q, want %q", lo, n, k, keys[want+n])
			}
			n++
			return n < j%4+1
		})
		if wantN := min(j%4+1, len(keys)-want); n != wantN {
			t.Fatalf("AscendFrom(%q) visited %d entries, want %d", lo, n, wantN)
		}
	}
	if m.root != nil {
		checkNode(t, m.root, "", true)
	}
}

// checkNode verifies the separator invariant: every key of child i lies in
// [keys[i], keys[i+1]).
func checkNode(t *testing.T, n *node[string, int], lo string, first bool) {
	t.Helper()
	if n.size() > maxEntries {
		t.Fatalf("node with %d entries exceeds fanout %d", n.size(), maxEntries)
	}
	if n.leaf() {
		for i, k := range n.keys {
			if (!first && k < lo) || (i > 0 && k <= n.keys[i-1]) {
				t.Fatalf("leaf keys out of order at %d: %q", i, k)
			}
		}
		return
	}
	for i, c := range n.kids {
		checkNode(t, c, n.keys[i], first && i == 0)
		if i+1 < len(n.kids) {
			var last string
			(Map[string, int]{root: c}).Ascend(func(k string, _ int) bool { last = k; return true })
			if last >= n.keys[i+1] {
				t.Fatalf("child %d holds %q beyond its upper separator %q", i, last, n.keys[i+1])
			}
		}
	}
}

// TestRandomEditsPersist drives random batches of sets and deletes and
// checks after each batch that the new version matches a reference map
// and that every earlier version still matches its own snapshot.
func TestRandomEditsPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[string, int]
	ref := map[string]int{}
	type version struct {
		m   Map[string, int]
		ref map[string]int
	}
	var history []version
	for round := 0; round < 300; round++ {
		tx := m.Edit()
		for i := 0; i < 1+rng.Intn(60); i++ {
			k := fmt.Sprintf("k%04d", rng.Intn(2000))
			if rng.Intn(3) == 0 {
				_, had := ref[k]
				if tx.Delete(k) != had {
					t.Fatalf("Delete(%q) presence mismatch", k)
				}
				delete(ref, k)
			} else {
				v := rng.Int()
				tx.Set(k, v)
				ref[k] = v
			}
		}
		m = tx.Map()
		check(t, m, ref)
		cp := make(map[string]int, len(ref))
		for k, v := range ref {
			cp[k] = v
		}
		history = append(history, version{m, cp})
		if round%50 == 49 {
			for _, h := range history {
				check(t, h.m, h.ref)
			}
		}
	}
}

func TestFromSortedThenEdit(t *testing.T) {
	for _, n := range []int{0, 1, 5, 24, 25, 31, 100, 1000, 5000} {
		keys := make([]string, n)
		vals := make([]int, n)
		ref := map[string]int{}
		for i := range keys {
			keys[i] = fmt.Sprintf("%06d", i)
			vals[i] = i
			ref[keys[i]] = i
		}
		m := FromSorted(keys, vals)
		check(t, m, ref)
		tx := m.Edit()
		for i := 0; i < n; i += 2 {
			tx.Delete(keys[i])
			delete(ref, keys[i])
		}
		tx.Set("zzz", -1)
		ref["zzz"] = -1
		check(t, tx.Map(), ref)
	}
}

// TestDeleteEverything shrinks a large map to empty and back, exercising
// merges and root collapse.
func TestDeleteEverything(t *testing.T) {
	var m Map[string, int]
	tx := m.Edit()
	for i := 0; i < 3000; i++ {
		tx.Set(fmt.Sprintf("%05d", (i*7919)%3000), i)
	}
	for i := 0; i < 3000; i++ {
		if !tx.Delete(fmt.Sprintf("%05d", (i*104729)%3000)) {
			t.Fatalf("delete %d missed", i)
		}
	}
	m = tx.Map()
	if m.Len() != 0 || m.root != nil {
		t.Fatalf("emptied map has len %d root %v", m.Len(), m.root)
	}
}

// TestEditCopiesOnlyTouchedPath pins the structure sharing: one edit on a
// large map allocates a bounded number of nodes, independent of its size.
func TestEditCopiesOnlyTouchedPath(t *testing.T) {
	allocs := func(n int) float64 {
		keys := make([]string, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%06d", i)
		}
		m := FromSorted(keys, vals)
		return testing.AllocsPerRun(50, func() {
			tx := m.Edit()
			tx.Set(keys[n/2], 1)
			tx.Delete(keys[n/3])
			_ = tx.Map()
		})
	}
	small, large := allocs(100), allocs(100_000)
	if large > 2*small+8 {
		t.Fatalf("edit on 100k entries made %.0f allocations, on 100 entries %.0f", large, small)
	}
}
