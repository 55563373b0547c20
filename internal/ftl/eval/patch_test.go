package eval

import (
	"slices"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

func setOf(ivs ...temporal.Interval) temporal.Set {
	return temporal.NewSet(ivs...)
}

func TestRelationInsertFrom(t *testing.T) {
	r := NewRelation("o", "n")
	r.Add([]Val{ObjVal("a"), ObjVal("b")}, setOf(temporal.Interval{Start: 0, End: 2}))

	// Permuted columns are realigned.
	src := NewRelation("n", "o")
	src.Add([]Val{ObjVal("b"), ObjVal("a")}, setOf(temporal.Interval{Start: 5, End: 6}))
	src.Add([]Val{ObjVal("c"), ObjVal("c")}, setOf(temporal.Interval{Start: 1, End: 1}))
	if err := r.InsertFrom(src); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup([]Val{ObjVal("a"), ObjVal("b")})
	want := setOf(temporal.Interval{Start: 0, End: 2}, temporal.Interval{Start: 5, End: 6})
	if !got.Equal(want) {
		t.Errorf("merged set = %v, want %v", got, want)
	}
	if _, ok := r.Lookup([]Val{ObjVal("c"), ObjVal("c")}); !ok {
		t.Error("missing inserted tuple (c,c)")
	}

	// Mismatched column sets are rejected, in both directions.
	if err := r.InsertFrom(NewRelation("o")); err == nil {
		t.Error("InsertFrom with missing column: want error")
	}
	if err := NewRelation("o").InsertFrom(r); err == nil {
		t.Error("InsertFrom with extra column: want error")
	}
}

// TestEvalQueryPinned checks the per-object entry point against the full
// evaluation: pinning a variable to one object must reproduce exactly the
// full answer's tuples for that object, for single- and two-binding
// queries, and must not disturb the caller's context.
func TestEvalQueryPinned(t *testing.T) {
	f := newFixture(t)
	f.addCar(t, "fast", 80, geom.Point{X: 0}, geom.Vector{X: 4})
	f.addCar(t, "slow", 80, geom.Point{X: 0}, geom.Vector{X: 1})
	f.addCar(t, "parked", 50, geom.Point{X: 15}, geom.Vector{})

	queries := []string{
		`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 3 INSIDE(o, P)`,
		`RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE ALWAYS FOR 5 DIST(o, n) <= 12`,
		`RETRIEVE o FROM Vehicles o WHERE NOT INSIDE(o, P)`,
	}
	for _, src := range queries {
		q := ftl.MustParse(src)
		for _, b := range q.Bindings {
			if _, ok := f.ctx.Domains[b.Var]; !ok {
				f.ctx.Domains[b.Var] = append([]Val{}, f.ctx.Domains["o"]...)
			}
		}
		full, err := EvalQuery(q, f.ctx)
		if err != nil {
			t.Fatalf("EvalQuery(%s): %v", src, err)
		}
		for _, pinVar := range q.Targets {
			for _, id := range []most.ObjectID{"fast", "slow", "parked"} {
				before := len(f.ctx.Domains[pinVar])
				pinned, err := EvalQueryPinned(q, f.ctx, pinVar, ObjVal(id))
				if err != nil {
					t.Fatalf("EvalQueryPinned(%s, %s=%s): %v", src, pinVar, id, err)
				}
				if len(f.ctx.Domains[pinVar]) != before {
					t.Fatalf("EvalQueryPinned mutated the context's %q domain", pinVar)
				}
				// Every pinned tuple must match the full answer, and every
				// full-answer tuple binding id at pinVar must be present.
				restricted := NewRelation(full.Cols...)
				col := slices.Index(full.Cols, pinVar)
				for _, tu := range full.Tuples() {
					if tu.Vals[col] == ObjVal(id) {
						restricted.Add(tu.Vals, tu.Times)
					}
				}
				if !relationsEqual(pinned, restricted) {
					t.Errorf("%s pinned %s=%s:\n got %v\nwant %v",
						src, pinVar, id, pinned.Answers(), restricted.Answers())
				}
			}
		}
	}

	if _, err := EvalQueryPinned(ftl.MustParse(queries[0]), f.ctx, "zz", ObjVal("fast")); err == nil {
		t.Error("EvalQueryPinned with unbound variable: want error")
	}
}
