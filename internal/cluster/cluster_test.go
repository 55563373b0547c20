package cluster_test

// The cluster differential oracle: a 3-node loopback cluster replays a
// seeded city scenario in lockstep with a single in-process database, and
// after every tick each catalog template must answer bit-identically
// through the scatter-gather router — instantaneous queries against a
// from-scratch naive evaluation, continuous queries through merged
// per-node subscription streams that must converge by push alone.  Cars
// cross zone boundaries as the city plays out, so the run exercises real
// handoffs (asserted at the end): the same car answers from one node at
// tick t and another at t+1, and nothing in the merged answers shows it.

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/cluster"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

func canonRows(rows [][]wire.Value) string {
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

// citySpec is the shared scenario: small enough to replay quickly, big
// enough that cars migrate between districts (and therefore zones).
func citySpec(ticks temporal.Tick) city.Spec {
	return city.Spec{
		Seed: 5, Cars: 60, Buses: 3,
		GridW: 6, GridH: 6, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 1,
		Ticks: ticks, Horizon: 12,
	}
}

func TestClusterCityOracle(t *testing.T) {
	ticks := temporal.Tick(12)
	if testing.Short() {
		ticks = 6
	}
	spec := citySpec(ticks)
	cty, err := city.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cat := cty.Catalog()
	opts := query.Options{Horizon: spec.Horizon, Regions: cat.Regions}

	// The city road grid spans [0, (GridW-1)*Block]²; three vertical
	// zone stripes split it across the nodes.
	side := float64(spec.GridW-1) * 100
	cl, err := cluster.Start(cluster.Config{
		Nodes: 3, GridX: 3, GridY: 1,
		Bounds:     geom.Rect{Max: geom.Point{X: side, Y: side}},
		Replicated: []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:       cty.Database,
		Opts:       opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	router, err := cl.Router(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	localDB, err := cty.Database()
	if err != nil {
		t.Fatal(err)
	}
	localEng := query.NewEngine(localDB)

	// naive is the definitional from-scratch evaluation on the oracle
	// database: fresh snapshot, no incremental state.
	naiveKey := func(src string) string {
		t.Helper()
		q := ftl.MustParse(src)
		ctx := &eval.Context{
			Now:     localDB.Now(),
			Horizon: spec.Horizon,
			Objects: most.NewSnapshot(localDB.Now(), localDB.Objects("")...),
			Regions: cat.Regions,
			Domains: map[string][]eval.Val{},
		}
		if err := ctx.BindDomains(q); err != nil {
			t.Fatalf("naive bind: %v", err)
		}
		rel, err := eval.EvalQuery(q, ctx)
		if err != nil {
			t.Fatalf("naive eval: %v", err)
		}
		var rows [][]wire.Value
		for _, vals := range rel.At(localDB.Now()) {
			row := make([]wire.Value, len(vals))
			for j, v := range vals {
				row[j] = wire.FromVal(v)
			}
			rows = append(rows, row)
		}
		return canonRows(rows)
	}

	// Every continuous template: a single-database engine CQ as the
	// oracle, a merged cluster subscription as the system under test.
	type clusterCQ struct {
		tpl city.Template
		cq  *query.Continuous
		sub *cluster.MergedSub
	}
	var cqs []clusterCQ
	for _, tpl := range cat.Continuous() {
		cq, err := localEng.Continuous(ftl.MustParse(tpl.Src), opts)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		defer cq.Cancel()
		sub, err := router.Subscribe(tpl.Src, spec.Horizon)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		defer sub.Close()
		cqs = append(cqs, clusterCQ{tpl, cq, sub})
	}
	// rowsAt canonicalizes the rows an answer presents at tick now — the
	// same per-tick membership contract the chaos watcher enforces.  The
	// comparison is membership-at-now rather than interval-for-interval
	// because a handoff re-derives the moved object's CQ state on the new
	// owner: re-derivation reproduces what holds at and after the current
	// tick exactly, but re-anchors the row's prediction window, so the
	// interval endpoints can legitimately differ from the oracle's
	// incrementally-maintained (staler-anchored) row.  Checking exact
	// membership at every tick of the run pins the stream to the oracle
	// tick by tick, which is the strongest invariant both maintenance
	// paths share.
	rowsAt := func(ans []wire.AnswerRow, now temporal.Tick) string {
		var rows [][]wire.Value
		for _, r := range ans {
			if r.Start <= now && now <= r.End {
				rows = append(rows, r.Vals)
			}
		}
		return canonRows(rows)
	}
	awaitCQ := func(tk temporal.Tick, e clusterCQ) {
		t.Helper()
		rel, err := e.cq.Answer()
		if err != nil {
			t.Fatalf("tick %d: %s: oracle answer: %v", tk, e.tpl.Name, err)
		}
		now := localDB.Now()
		want := rowsAt(wire.FromRelation(rel), now)
		deadline := time.After(10 * time.Second)
		for {
			ans, _, err := e.sub.Answer()
			if err != nil {
				t.Fatalf("tick %d: %s: merged answer: %v", tk, e.tpl.Name, err)
			}
			got := rowsAt(ans, now)
			if got == want {
				return
			}
			select {
			case <-e.sub.Updates():
			case <-deadline:
				t.Fatalf("tick %d: merged CQ %s never converged:\n  cluster: %q\n  oracle:  %q",
					tk, e.tpl.Name, got, want)
			}
		}
	}
	for _, e := range cqs {
		awaitCQ(0, e)
	}

	byTick := map[temporal.Tick][]workload.UpdateEvent{}
	for _, e := range cty.Events {
		byTick[e.Tick] = append(byTick[e.Tick], e)
	}
	lastVec := map[most.ObjectID]geom.Vector{}
	carStir := cty.Cars[0].ID
	busStir := most.ObjectID(cty.Buses[0].Plate)

	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		if _, err := router.Advance(1); err != nil {
			t.Fatal(err)
		}
		localDB.Advance(1)

		evs := byTick[tk]
		carsTouched, busesTouched := false, false
		for _, e := range evs {
			lastVec[e.Object] = e.Vector
			if strings.HasPrefix(string(e.Object), "car-") {
				carsTouched = true
			} else {
				busesTouched = true
			}
		}
		if !carsTouched {
			evs = append(evs, workload.UpdateEvent{Object: carStir, Vector: lastVec[carStir]})
		}
		if !busesTouched {
			evs = append(evs, workload.UpdateEvent{Object: busStir, Vector: lastVec[busStir]})
		}
		for _, e := range evs {
			if err := router.SetMotion(string(e.Object), e.Vector.X, e.Vector.Y); err != nil {
				t.Fatalf("tick %d: %s: %v", tk, e.Object, err)
			}
			if err := localDB.SetMotion(e.Object, e.Vector); err != nil {
				t.Fatal(err)
			}
		}

		for _, tpl := range cat.Instantaneous() {
			now, rows, err := router.Query(tpl.Src, spec.Horizon)
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, tpl.Name, err)
			}
			if now != localDB.Now() {
				t.Fatalf("tick %d: clocks diverged: cluster %d, oracle %d", tk, now, localDB.Now())
			}
			if got, want := canonRows(rows), naiveKey(tpl.Src); got != want {
				t.Fatalf("tick %d: %s diverged:\n  cluster: %q\n  naive:   %q", tk, tpl.Name, got, want)
			}
		}
		for _, e := range cqs {
			awaitCQ(tk, e)
		}
	}

	// The run must have exercised actual ownership transfers, and the
	// cars must end distributed: every node holds its shard, no car
	// duplicated, none lost.
	var handoffs uint64
	for i := 0; i < 3; i++ {
		out, _, _, _ := cl.Node(i).Stats()
		handoffs += out
	}
	if handoffs == 0 {
		t.Fatal("city run crossed no zone boundary: the oracle proved nothing about handoff")
	}
	assertPartition(t, cl, router, spec.Cars)
}

// assertPartition proves exactly-once placement: across all nodes every
// car exists exactly once, and replicated classes exist in full
// everywhere.
func assertPartition(t *testing.T, cl *cluster.Cluster, router *cluster.Router, cars int) {
	t.Helper()
	seen := map[string]int{}
	for i, addr := range cl.Addrs() {
		c, err := router.NodeClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Objects(city.CarClass.Name())
		if err != nil {
			t.Fatalf("node %d objects: %v", i, err)
		}
		for _, o := range resp.Objects {
			seen[o.ID]++
		}
	}
	if len(seen) != cars {
		t.Fatalf("cluster holds %d distinct cars, want %d", len(seen), cars)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("car %s present on %d nodes, want exactly 1", id, n)
		}
	}
}
