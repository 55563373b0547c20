package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

func randomRelation(rng *rand.Rand, n int) *Relation {
	r := NewRelation("o", "n")
	for i := 0; i < n; i++ {
		s := temporal.Tick(rng.Intn(50))
		r.Add([]Val{ObjVal(most.ObjectID(fmt.Sprint("car-", rng.Intn(40)))), NumVal(float64(rng.Intn(3)))},
			setOf(temporal.Interval{Start: s, End: s + temporal.Tick(rng.Intn(10))}))
	}
	return r
}

// TestDiffPatchRoundTrip: patching old with Diff(old, new) reproduces new
// exactly, the patch lists only what changed, and old — frozen and shared
// with the result — is left unchanged.
func TestDiffPatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		old := randomRelation(rng, rng.Intn(60)).Freeze()
		before := old.Answers()
		next := randomRelation(rng, rng.Intn(60))
		d := Diff(old, next)
		got := old.Patch(d)
		if !got.Equal(next) || !reflect.DeepEqual(got.Answers(), next.Answers()) {
			t.Fatalf("round %d: old.Patch(Diff(old, new)) != new", round)
		}
		if !reflect.DeepEqual(old.Answers(), before) {
			t.Fatalf("round %d: patching changed the base relation", round)
		}
		for _, tu := range d.Put {
			if ot, ok := old.Lookup(tu.Vals); ok && ot.Equal(tu.Times) {
				t.Fatalf("round %d: unchanged tuple %v in the patch", round, tu.Vals)
			}
		}
		if d.Empty() != old.Equal(next) {
			t.Fatalf("round %d: Empty() = %v but Equal = %v", round, d.Empty(), old.Equal(next))
		}
		for i := 1; i < len(d.Put); i++ {
			if Key(d.Put[i-1].Vals) >= Key(d.Put[i].Vals) {
				t.Fatalf("round %d: patch not in instantiation order", round)
			}
		}
	}
}

// TestReplaceDelta: replacing an object's tuples yields gone for keys the
// replacement drops (once, however often they are named), put for new or
// changed tuples, and nothing for tuples reproduced exactly.
func TestReplaceDelta(t *testing.T) {
	iv := func(s, e temporal.Tick) temporal.Set { return setOf(temporal.Interval{Start: s, End: e}) }
	r := NewRelation("o", "n")
	r.Add([]Val{ObjVal("a"), ObjVal("b")}, iv(0, 5))
	r.Add([]Val{ObjVal("a"), ObjVal("c")}, iv(0, 5))
	r.Add([]Val{ObjVal("b"), ObjVal("a")}, iv(1, 2))
	r.Add([]Val{ObjVal("x"), ObjVal("y")}, iv(1, 2))
	fr := r.Freeze()

	repl := NewRelation("o", "n")
	repl.Add([]Val{ObjVal("a"), ObjVal("b")}, iv(0, 5)) // unchanged
	repl.Add([]Val{ObjVal("b"), ObjVal("a")}, iv(1, 9)) // changed
	repl.Add([]Val{ObjVal("a"), ObjVal("d")}, iv(3, 4)) // new
	keys := []string{
		Key([]Val{ObjVal("a"), ObjVal("b")}), Key([]Val{ObjVal("a"), ObjVal("c")}),
		Key([]Val{ObjVal("b"), ObjVal("a")}), Key([]Val{ObjVal("a"), ObjVal("c")}),
	}
	d := fr.ReplaceDelta(keys, repl)
	if len(d.Gone) != 1 || d.Gone[0].Vals[1] != ObjVal("c") {
		t.Fatalf("gone = %v, want only (a, c)", d.Gone)
	}
	if len(d.Put) != 2 {
		t.Fatalf("put = %d tuples, want 2 (changed (b, a), new (a, d))", len(d.Put))
	}
	next := fr.Patch(d)
	want := NewRelation("o", "n")
	want.Add([]Val{ObjVal("a"), ObjVal("b")}, iv(0, 5))
	want.Add([]Val{ObjVal("b"), ObjVal("a")}, iv(1, 9))
	want.Add([]Val{ObjVal("a"), ObjVal("d")}, iv(3, 4))
	want.Add([]Val{ObjVal("x"), ObjVal("y")}, iv(1, 2))
	if !next.Equal(want) {
		t.Fatalf("patched relation %v, want %v", next.Answers(), want.Answers())
	}
}

// TestFrozenRelationReadOnly: a frozen relation answers every read
// exactly as its mutable original (Tuples in the same canonical order),
// and refuses writes — it may be shared by concurrent readers.
func TestFrozenRelationReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRelation(rng, 80)
	fr := r.Freeze()
	if !reflect.DeepEqual(fr.Answers(), r.Answers()) || !reflect.DeepEqual(fr.At(3), r.At(3)) || fr.Len() != r.Len() {
		t.Fatal("frozen relation reads differ from its original")
	}
	p, err := fr.Project([]string{"o"})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := r.Project([]string{"o"})
	if !p.Equal(q) {
		t.Fatal("projection of frozen relation differs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a frozen relation did not panic")
		}
	}()
	fr.Add([]Val{ObjVal("new"), NumVal(1)}, setOf(temporal.Interval{Start: 0, End: 1}))
}
