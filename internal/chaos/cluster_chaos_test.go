package chaos

// Cluster chaos: a durable 3-node cluster replays a seeded city scenario
// against a single-database oracle while the harness kills and restarts
// nodes and partitions the inter-node (peer) links that carry object
// handoffs.  The per-tick contract is the same as the single-node chaos
// suite's — instantaneous answers bit-identical to a from-scratch naive
// evaluation, merged continuous-query streams converging to the oracle's
// per-tick membership — and at the end every partitioned object must
// exist exactly once across the cluster, with at least one real handoff
// observed.
//
// Fault placement is deterministic by construction: the peer gate severs
// *before* a rebalance barrier, so transfers fail at dial and park as
// in-doubt (frozen) objects; a node that holds in-doubt transfers is then
// killed while still partitioned, forcing recovery to quarantine its
// out-of-zone objects and re-offer them once the partition heals.  Both
// directions of the crash-during-handoff window get exercised: a sender
// that dies with unacknowledged transfers, and a receiver that dies after
// applying transfers whose receipts must replay to retried offers.

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

// canonQueryRows renders scatter-gather query rows order-independently.
func canonQueryRows(rows [][]wire.Value) string {
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

func TestClusterChaos(t *testing.T) {
	ticks := temporal.Tick(12)
	if testing.Short() {
		ticks = 8
	}
	spec := city.Spec{
		Seed: 5, Cars: 60, Buses: 3,
		GridW: 6, GridH: 6, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 1,
		Ticks: ticks, Horizon: 12,
	}
	cty, err := city.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cat := cty.Catalog()
	opts := query.Options{Horizon: spec.Horizon, Regions: cat.Regions}

	// The peer gate carries every node-to-node connection: severing it is
	// a full interior partition — routers and clients stay connected, but
	// no handoff can cross.
	peerGate := &Gate{}
	side := float64(spec.GridW-1) * 100
	cl, err := cluster.Start(cluster.Config{
		Nodes: 3, GridX: 3, GridY: 1,
		Bounds:          geom.Rect{Max: geom.Point{X: side, Y: side}},
		Replicated:      []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:            cty.Database,
		Opts:            opts,
		Durable:         true,
		Dir:             t.TempDir(),
		CheckpointEvery: 40,
		Dial:            peerGate.Dial,
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

	oracle, err := cty.Database()
	if err != nil {
		t.Fatal(err)
	}
	oracleEng := query.NewEngine(oracle)

	naiveKey := func(src string) string {
		t.Helper()
		q := ftl.MustParse(src)
		ctx := &eval.Context{
			Now:     oracle.Now(),
			Horizon: spec.Horizon,
			Objects: most.NewSnapshot(oracle.Now(), oracle.Objects("")...),
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
		for _, vals := range rel.At(oracle.Now()) {
			row := make([]wire.Value, len(vals))
			for j, v := range vals {
				row[j] = wire.FromVal(v)
			}
			rows = append(rows, row)
		}
		return canonQueryRows(rows)
	}

	type clusterCQ struct {
		tpl city.Template
		cq  *query.Continuous
		sub *cluster.MergedSub
	}
	var cqs []clusterCQ
	for _, tpl := range cat.Continuous() {
		cq, err := oracleEng.Continuous(ftl.MustParse(tpl.Src), opts)
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
	awaitCQ := func(tk temporal.Tick, e clusterCQ) {
		t.Helper()
		rel, err := e.cq.Answer()
		if err != nil {
			t.Fatalf("tick %d: %s: oracle answer: %v", tk, e.tpl.Name, err)
		}
		now := oracle.Now()
		want := canonicalRowsAt(wire.FromRelation(rel), now)
		deadline := time.After(20 * time.Second)
		for {
			ans, _, err := e.sub.Answer()
			if err != nil {
				t.Fatalf("tick %d: %s: merged answer: %v", tk, e.tpl.Name, err)
			}
			got := canonicalRowsAt(ans, now)
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

	byTick := map[temporal.Tick][]workload.UpdateEvent{}
	for _, e := range cty.Events {
		byTick[e.Tick] = append(byTick[e.Tick], e)
	}
	lastVec := map[most.ObjectID]geom.Vector{}
	carStir := cty.Cars[0].ID
	busStir := most.ObjectID(cty.Buses[0].Plate)

	// pendingNode returns the first node holding in-doubt transfers, or
	// -1.  The fault script uses it to kill a sender mid-handoff.
	pendingNode := func() int {
		for i := 0; i < 3; i++ {
			if cl.Node(i).Pending() > 0 {
				return i
			}
		}
		return -1
	}
	// The partition goes up early and stays up until a rebalance barrier
	// actually parks an in-doubt transfer somewhere (adaptive: which tick
	// a car first crosses a seam depends on the seeded trajectories), then
	// the node holding it is killed — a crash with unresolved handoffs.
	// While pending is zero no object is frozen, so update traffic never
	// blocks on the partition.
	severTick := temporal.Tick(2)
	maxSeverTick := temporal.Tick(5)
	severed := false
	var killed bool
	var restartTick temporal.Tick

	verify := func(tk temporal.Tick) {
		t.Helper()
		for _, tpl := range cat.Instantaneous() {
			now, rows, err := router.Query(tpl.Src, spec.Horizon)
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, tpl.Name, err)
			}
			if now != oracle.Now() {
				t.Fatalf("tick %d: clocks diverged: cluster %d, oracle %d", tk, now, oracle.Now())
			}
			if got, want := canonQueryRows(rows), naiveKey(tpl.Src); got != want {
				t.Fatalf("tick %d: %s diverged:\n  cluster: %q\n  naive:   %q", tk, tpl.Name, got, want)
			}
		}
		for _, e := range cqs {
			awaitCQ(tk, e)
		}
	}

	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		if tk == severTick && !killed {
			// Partition the interior before the barrier: every handoff
			// attempted while severed fails at dial and parks in doubt.
			peerGate.Sever()
			severed = true
		}
		if _, err := router.Advance(1); err != nil {
			t.Fatal(err)
		}
		oracle.Advance(1)

		if severed {
			victim := pendingNode()
			if victim >= 0 || tk >= maxSeverTick {
				// Kill the node holding in-doubt transfers while the
				// partition is still up — crash mid-handoff.  (If no car
				// crossed a seam during the whole severed window, kill
				// node 1 anyway so the run still exercises kill-restart
				// under partition.)
				t.Logf("tick %d: severed barrier parked in-doubt transfers on node %d "+
					"(pending: %d %d %d)", tk, victim,
					cl.Node(0).Pending(), cl.Node(1).Pending(), cl.Node(2).Pending())
				if victim < 0 {
					victim = 1
				}
				cl.Kill(victim)
				peerGate.Heal()
				severed = false
				if err := cl.Restart(victim); err != nil {
					t.Fatalf("restart node %d: %v", victim, err)
				}
				killed = true
				restartTick = tk + 2
			}
		}
		if killed && tk == restartTick {
			// Second crash, opposite role: node 2 has by now received
			// transfers (or their receipts); killing and recovering it
			// forces receipt replay against any retried offers.
			cl.Kill(2)
			if err := cl.Restart(2); err != nil {
				t.Fatalf("restart node 2: %v", err)
			}
		}

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
			// The router's retry machinery rides out dead windows and
			// frozen (mid-handoff) objects; the oracle applies only what
			// the cluster acknowledged.
			if err := router.SetMotion(string(e.Object), e.Vector.X, e.Vector.Y); err != nil {
				t.Fatalf("tick %d: %s: %v", tk, e.Object, err)
			}
			if err := oracle.SetMotion(e.Object, e.Vector); err != nil {
				t.Fatal(err)
			}
		}

		verify(tk)
	}

	// Settle: extra barrier rounds flush any transfer still parked from
	// the fault windows, then the cluster must again match the oracle.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := router.Advance(0); err != nil {
			t.Fatal(err)
		}
		if pendingNode() < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-doubt transfers never drained")
		}
		time.Sleep(50 * time.Millisecond)
	}
	verify(ticks)

	var handoffs, dups uint64
	for i := 0; i < 3; i++ {
		out, _, d, _ := cl.Node(i).Stats()
		handoffs += out
		dups += d
	}
	if handoffs == 0 {
		t.Fatal("chaos run crossed no zone boundary: nothing proven about handoff under faults")
	}
	t.Logf("cluster chaos: %d handoffs, %d duplicate acks", handoffs, dups)

	// Exactly-once across every crash and partition: each car exists on
	// precisely one node.
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
	if len(seen) != spec.Cars {
		t.Fatalf("cluster holds %d distinct cars, want %d", len(seen), spec.Cars)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("car %s present on %d nodes, want exactly 1", id, n)
		}
	}
}
