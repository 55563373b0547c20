package city

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
)

// This file is the city-scale arm of the differential-oracle
// discipline (internal/query/oracle_test.go): a full city scenario is
// replayed tick by tick and EVERY catalog template — instantaneous and
// continuous — is cross-checked against a from-scratch naive
// evaluation (fresh snapshot, no normalization, no index, sequential)
// at every tick, across multiple seeds.  Zero divergence is the gate
// the city benchmark rides on.
//
// Window alignment: Answer(CQ) is anchored at its last reevaluation,
// so exact equality with an evaluation anchored at Now requires a
// relevant update every tick for every class a CQ ranges over.  The
// driver guarantees that with per-class "stirrers": if the schedule
// has no Cars (or Buses) event this tick, it re-issues one object's
// current motion vector — a semantic no-op that re-anchors the CQs.

// naiveCityEval is the definitional from-scratch evaluation.
func naiveCityEval(t *testing.T, db *most.Database, q *ftl.Query, regions map[string]geom.Polygon, horizon temporal.Tick) *eval.Relation {
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

// rowsKey renders presented rows as a sorted multiset key.
func rowsKey(rows [][]eval.Val) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

func presentKey(rows []query.Row) string {
	vals := make([][]eval.Val, len(rows))
	for i, r := range rows {
		vals[i] = r
	}
	return rowsKey(vals)
}

func TestCityCorrectnessOracle(t *testing.T) {
	seeds := []int64{11, 12}
	ticks := temporal.Tick(36)
	if testing.Short() {
		seeds = []int64{11}
		ticks = 16
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCityOracle(t, seed, ticks)
		})
	}
}

func runCityOracle(t *testing.T, seed int64, ticks temporal.Tick) {
	c, err := Generate(Spec{
		Seed: seed, Cars: 150, Buses: 4,
		GridW: 8, GridH: 8, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 2,
		Ticks: ticks, Horizon: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Database()
	if err != nil {
		t.Fatal(err)
	}
	cat := c.Catalog()
	eng := query.NewEngine(db)
	opts := query.Options{Horizon: c.Spec.Horizon, Regions: cat.Regions}

	type instQ struct {
		tpl Template
		q   *ftl.Query
	}
	var insts []instQ
	type contQ struct {
		tpl Template
		q   *ftl.Query
		cq  *query.Continuous
	}
	var conts []contQ
	for _, tpl := range cat.Templates {
		q, err := ftl.Parse(tpl.Src)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		if tpl.Kind == Instantaneous {
			insts = append(insts, instQ{tpl, q})
			continue
		}
		cq, err := eng.Continuous(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		defer cq.Cancel()
		conts = append(conts, contQ{tpl, q, cq})
	}

	// Group the schedule by tick and track each object's last vector
	// for the stirrers.
	byTick := map[temporal.Tick][]int{}
	for i, e := range c.Events {
		byTick[e.Tick] = append(byTick[e.Tick], i)
	}
	lastVec := map[most.ObjectID]geom.Vector{}
	carStir := c.Cars[0].ID
	busStir := most.ObjectID(c.Buses[0].Plate)

	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		db.Advance(1)
		carsTouched, busesTouched := false, false
		for _, i := range byTick[tk] {
			e := c.Events[i]
			if err := db.SetMotion(e.Object, e.Vector); err != nil {
				t.Fatalf("tick %d: %v", tk, err)
			}
			lastVec[e.Object] = e.Vector
			if strings.HasPrefix(string(e.Object), "car-") {
				carsTouched = true
			} else {
				busesTouched = true
			}
		}
		if !carsTouched {
			if err := db.SetMotion(carStir, lastVec[carStir]); err != nil {
				t.Fatal(err)
			}
		}
		if !busesTouched {
			if err := db.SetMotion(busStir, lastVec[busStir]); err != nil {
				t.Fatal(err)
			}
		}

		for _, iq := range insts {
			got, err := eng.Instantaneous(iq.q, opts)
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, iq.tpl.Name, err)
			}
			want := naiveCityEval(t, db, iq.q, cat.Regions, c.Spec.Horizon).At(db.Now())
			if g, w := presentKey(got), rowsKey(want); g != w {
				t.Fatalf("tick %d: %s diverged from naive oracle:\n  engine: %q\n  naive:  %q",
					tk, iq.tpl.Name, g, w)
			}
		}
		// Continuous queries present per tick (§2.3); Current(tk) is the
		// contract surface, exactly as in oracle_test.go — Answer(CQ)
		// itself is anchored per-row at the last maintenance touching
		// that row, so full-relation interval equality with a
		// from-scratch evaluation is not the invariant.
		for _, cq := range conts {
			rows, err := cq.cq.Current(db.Now())
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, cq.tpl.Name, err)
			}
			want := naiveCityEval(t, db, cq.q, cat.Regions, c.Spec.Horizon).At(db.Now())
			if g, w := presentKey(rows), rowsKey(want); g != w {
				t.Fatalf("tick %d: CQ %s diverged from naive oracle:\n  engine: %q\n  naive:  %q",
					tk, cq.tpl.Name, g, w)
			}
		}
	}
}
