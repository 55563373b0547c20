package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/workload"
)

// This file is the differential oracle locking in the incremental engine:
// a naive reference evaluator re-runs every registered query from scratch
// at every clock tick — fresh snapshot, sequential evaluation, no motion
// index, no normalization — and the test asserts the materialized answers
// the engine maintains under updates (Answer(CQ) reevaluation, persistent
// history replay, version-stamped installs) are identical, tick for tick,
// across seeded workloads.
//
// Window-alignment soundness: Answer(CQ) is anchored at the time of its
// last reevaluation, so exact equality with a from-scratch evaluation at
// Now=t is only guaranteed when a relevant update arrived at tick t.  The
// driver therefore issues at least one motion update every tick (the
// engine reevaluates synchronously before SetMotion returns).

// naiveEval evaluates q from scratch against the database's current state:
// the definitional "evaluate the whole query now" path with everything the
// engine adds (index pruning, rewrite) switched off: it reads a standalone
// snapshot of the objects, which carries no index.
func naiveEval(t *testing.T, db *most.Database, q *ftl.Query, regions map[string]geom.Polygon, horizon temporal.Tick) *eval.Relation {
	t.Helper()
	ctx := &eval.Context{
		Now:     db.Now(),
		Horizon: horizon,
		Objects: most.NewSnapshot(db.Now(), db.Objects("")...),
		Regions: regions,
		Domains: map[string][]eval.Val{},
	}
	if err := ctx.BindDomains(q); err != nil {
		t.Fatalf("naive bind: %v", err)
	}
	rel, err := eval.EvalQuery(q, ctx)
	if err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	return rel
}

// naivePersistent replays the logged history from anchor and evaluates q
// over it from scratch, mirroring the definitional persistent-query
// semantics (§2.3: a sequence of instantaneous queries on the history
// starting at the anchor).
func naivePersistent(t *testing.T, db *most.Database, q *ftl.Query, regions map[string]geom.Polygon, anchor, horizon temporal.Tick) []Row {
	t.Helper()
	objects := synthesizeHistory(db.History(), anchor, anchor.Add(horizon))
	ctx := &eval.Context{
		Now:     anchor,
		Horizon: horizon,
		Objects: objects,
		Regions: regions,
		Domains: map[string][]eval.Val{},
	}
	if err := ctx.BindDomains(q); err != nil {
		t.Fatalf("naive persistent bind: %v", err)
	}
	rel, err := eval.EvalQuery(q, ctx)
	if err != nil {
		t.Fatalf("naive persistent eval: %v", err)
	}
	var rows []Row
	for _, vals := range rel.At(anchor) {
		rows = append(rows, Row(vals))
	}
	return rows
}

// rowKeys renders rows as a sorted multiset of value strings so answer
// sets compare independently of presentation order.
func rowKeys(rows []Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		key := ""
		for i, v := range r {
			if i > 0 {
				key += "|"
			}
			key += v.String()
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []Row) bool {
	ka, kb := rowKeys(a), rowKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func oracleSpec(seed int64, n int) workload.FleetSpec {
	return workload.FleetSpec{
		N:        n,
		Region:   geom.Rect{Max: geom.Point{X: 100, Y: 100}},
		MaxSpeed: 2,
		Seed:     seed,
	}
}

// TestDifferentialOracle drives seeded workloads for many ticks with at
// least one motion update per tick, and cross-checks every registered
// query type against the from-scratch reference each tick:
//
//   - an index-accelerated continuous INSIDE query;
//   - a bounded-Eventually continuous query;
//   - a two-variable relationship (DIST) continuous query;
//   - an assignment-quantifier persistent query (the paper's query R:
//     "speed doubles"), replayed over the logged history.
//
// Every 50 ticks the naive relation itself is cross-checked against
// eval.ReferenceEval, the definitional state-by-state semantics, so the
// chain engine == naive == definition closes end to end.
func TestDifferentialOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	ticks := temporal.Tick(1000)
	if testing.Short() {
		seeds = []int64{1}
		ticks = 120
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runOracle(t, seed, ticks)
		})
	}
}

func runOracle(t *testing.T, seed int64, ticks temporal.Tick) {
	const (
		nVehicles = 6
		horizon   = temporal.Tick(50)
	)
	spec := oracleSpec(seed, nVehicles)
	db, err := workload.Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	region := map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)}

	e := NewEngine(db)
	reg := obs.New()
	e.Instrument(reg)

	qInside := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`)
	qWithin := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 30 INSIDE(o, P)`)
	qDist := ftl.MustParse(`RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE ALWAYS FOR 10 DIST(o, n) <= 40`)
	// Assignment-coupled pair query: both variables are targets, but they
	// share an assignment quantifier, so delta maintenance must refuse it
	// (structural fallback) and keep full-reevaluating.
	qCoupled := ftl.MustParse(`RETRIEVE o, n FROM Vehicles o, Vehicles n
		WHERE [x <- SPEED(o.X.POSITION)] EVENTUALLY WITHIN 10 SPEED(n.X.POSITION) >= x + 1`)
	qSpeed := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE [x <- SPEED(o.X.POSITION)] EVENTUALLY SPEED(o.X.POSITION) >= 2 * x`)

	opts := Options{Horizon: horizon, Regions: region}
	cqs := []struct {
		name string
		q    *ftl.Query
	}{
		// The first registration activates the Vehicles grid index; every
		// later full evaluation of an INSIDE query probes it.
		{"inside-indexed", qInside},
		{"within", qWithin},
		{"dist-pairs", qDist},
		{"coupled-fallback", qCoupled},
	}
	regs := make([]*Continuous, len(cqs))
	for i, c := range cqs {
		cq, err := e.Continuous(c.q, opts)
		if err != nil {
			t.Fatalf("register %s: %v", c.name, err)
		}
		regs[i] = cq
		defer cq.Cancel()
	}
	pq, err := e.Persistent(qSpeed, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Cancel()
	anchor := pq.Anchor()

	rng := rand.New(rand.NewSource(seed * 7919))
	vid := func(i int) most.ObjectID {
		return most.ObjectID(fmt.Sprintf("car-%05d", i))
	}

	divergences := 0
	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		db.Advance(1)
		// At least one relevant update per tick (window alignment); some
		// ticks get a second, and occasionally a vehicle stops dead, which
		// exercises zero-motion trajectories in both evaluators.
		n := 1 + rng.Intn(2)
		for j := 0; j < n; j++ {
			v := geom.Vector{X: (rng.Float64() - 0.5) * 4, Y: (rng.Float64() - 0.5) * 4}
			if rng.Intn(10) == 0 {
				v = geom.Vector{}
			}
			if err := db.SetMotion(vid(rng.Intn(nVehicles)), v); err != nil {
				t.Fatal(err)
			}
		}

		for i, c := range cqs {
			got, err := regs[i].Current(tk)
			if err != nil {
				t.Fatalf("tick %d %s: %v", tk, c.name, err)
			}
			naive := naiveEval(t, db, c.q, region, horizon)
			var want []Row
			for _, vals := range naive.At(tk) {
				want = append(want, Row(vals))
			}
			if !sameRows(got, want) {
				divergences++
				t.Errorf("tick %d %s diverged:\n  engine: %v\n  naive:  %v",
					tk, c.name, rowKeys(got), rowKeys(want))
			}
			// Close the loop against the definitional semantics now and
			// then; ReferenceEval is exponential, so only on the
			// single-variable queries and only periodically.
			if tk%50 == 0 && len(c.q.Bindings) == 1 {
				ctx := &eval.Context{
					Now:     db.Now(),
					Horizon: horizon,
					Objects: db.Snapshot(),
					Regions: region,
					Domains: map[string][]eval.Val{},
				}
				if err := ctx.BindDomains(c.q); err != nil {
					t.Fatal(err)
				}
				ref, err := eval.ReferenceEval(c.q, ctx)
				if err != nil {
					t.Fatal(err)
				}
				var refRows []Row
				for _, vals := range ref.At(tk) {
					refRows = append(refRows, Row(vals))
				}
				if !sameRows(want, refRows) {
					t.Errorf("tick %d %s: naive disagrees with ReferenceEval:\n  naive: %v\n  ref:   %v",
						tk, c.name, rowKeys(want), rowKeys(refRows))
				}
			}
		}

		got, err := pq.Current()
		if err != nil {
			t.Fatalf("tick %d persistent: %v", tk, err)
		}
		want := naivePersistent(t, db, qSpeed, region, anchor, horizon)
		if !sameRows(got, want) {
			divergences++
			t.Errorf("tick %d persistent diverged:\n  engine: %v\n  naive:  %v",
				tk, rowKeys(got), rowKeys(want))
		}

		if divergences > 5 {
			t.Fatalf("aborting after %d divergences", divergences)
		}
	}

	// The run must have exercised both maintenance paths: per-object patches
	// (qWithin and qDist are decomposable and bounded) and fallbacks to full
	// reevaluation (qInside is unbounded, qCoupled is assignment-coupled).
	snap := reg.Snapshot()
	for _, c := range []string{
		"query.continuous.delta",
		"query.continuous.full",
		"query.continuous.fallback",
		"index.snapshot_probes",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, snap.Counters[c])
		}
	}
}
