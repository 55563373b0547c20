package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/cluster"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// ClusterPhase is one configuration's measured half of the cluster
// benchmark: the same seeded city replayed against a 1-node and an N-node
// cluster through identical router populations.
type ClusterPhase struct {
	Nodes          int     `json:"nodes"`
	UpdatesApplied int     `json:"updates_applied"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	RunMs          int64   `json:"run_ms"`
	Handoffs       uint64  `json:"handoffs"`
	Bounces        uint64  `json:"bounces"`
	QuerySamples   int     `json:"query_samples"`
	QueryP50Ns     int64   `json:"query_p50_ns"`
	QueryP99Ns     int64   `json:"query_p99_ns"`
	// Routing sums the update routers' routing counters.
	Routing cluster.RouterStats `json:"routing"`
}

// ClusterReport is the payload mostbench -cluster writes to
// BENCH_cluster.json: aggregate sustained update throughput of a
// spatially partitioned cluster versus a single node on the same
// workload, with scatter-gather query latency and handoff traffic.
type ClusterReport struct {
	Quick        bool         `json:"quick"`
	Seed         int64        `json:"seed"`
	Nodes        int          `json:"nodes"`
	GridX        int          `json:"grid_x"`
	GridY        int          `json:"grid_y"`
	Objects      int          `json:"objects"`
	Cars         int          `json:"cars"`
	Events       int          `json:"events"`
	Subscribers  int          `json:"subscribers"`
	UpdaterConns int          `json:"updater_conns"`
	TicksRun     int          `json:"ticks_run"`
	GenerateMs   int64        `json:"generate_ms"`
	Single       ClusterPhase `json:"single"`
	Cluster      ClusterPhase `json:"cluster"`
	// Speedup is cluster aggregate updates/sec over single-node — the
	// headline number: what spatial partitioning buys on this workload.
	Speedup float64 `json:"speedup"`
	// UpdatesPerSec mirrors Cluster.UpdatesPerSec at the top level so the
	// cluster report gates with the same shape as the city report.
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// ClusterBench measures what spatial partitioning buys: the same seeded
// city motion replay is committed twice through identical concurrent
// router populations — once against a single node owning the whole plane,
// once against a 3-node cluster of column zones — and the aggregate
// sustained updates/sec are compared.  Both phases carry the city's full
// continuous-query catalog as merged (scatter-gather) subscriptions and
// sample every instantaneous template through the router after the
// replay, so the cluster number includes the costs the architecture
// actually pays: zone routing, cross-seam handoffs, barrier rounds, and
// answer merging.
func ClusterBench(quick bool) (*ClusterReport, error) {
	spec := city.Spec{
		Seed: 2026, Cars: 24_000, Buses: 32,
		GridW: 32, GridH: 32, DistrictsX: 4, DistrictsY: 4, POIsPerDistrict: 2,
		Ticks: 12, Horizon: 20, TurnProb: 0.12, ReturnFrac: 0.2,
	}
	nodes, updConns, updateCap, qRounds := 3, 8, 48_000, 5
	if quick {
		spec.Cars, spec.Buses = 1500, 8
		spec.GridW, spec.GridH, spec.DistrictsX, spec.DistrictsY, spec.POIsPerDistrict = 12, 12, 2, 2, 2
		// A high turn rate keeps every tick saturated with motion events;
		// otherwise the replay is event-limited and fixed per-tick costs
		// (barrier rounds, seam handoffs) swamp the parallel update work
		// the benchmark is trying to measure.
		spec.TurnProb = 0.9
		updConns, updateCap, qRounds = 4, 9_600, 2
	}

	rep := &ClusterReport{Quick: quick, Seed: spec.Seed, Nodes: nodes,
		GridX: nodes, GridY: 1, Cars: spec.Cars, UpdaterConns: updConns}

	t0 := time.Now()
	cty, err := city.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rep.GenerateMs = time.Since(t0).Milliseconds()
	rep.Events = len(cty.Events)
	rep.Objects = cty.Objects()
	rep.Subscribers = len(cty.Catalog().Continuous())
	rep.TicksRun = int(spec.Ticks)

	single, err := runClusterPhase(1, cty, spec, updConns, updateCap, qRounds)
	if err != nil {
		return nil, fmt.Errorf("single-node phase: %w", err)
	}
	rep.Single = *single

	clustered, err := runClusterPhase(nodes, cty, spec, updConns, updateCap, qRounds)
	if err != nil {
		return nil, fmt.Errorf("%d-node phase: %w", nodes, err)
	}
	rep.Cluster = *clustered

	rep.UpdatesPerSec = rep.Cluster.UpdatesPerSec
	if rep.Single.UpdatesPerSec > 0 {
		rep.Speedup = rep.Cluster.UpdatesPerSec / rep.Single.UpdatesPerSec
	}
	return rep, nil
}

// runClusterPhase boots an n-node cluster seeded with the city, replays
// the capped motion schedule through updConns concurrent routers, then
// samples scatter-gather latency on the instantaneous catalog.
func runClusterPhase(n int, cty *city.City, spec city.Spec, updConns, updateCap, qRounds int) (*ClusterPhase, error) {
	cat := cty.Catalog()
	side := float64(spec.GridW-1) * 100
	cl, err := cluster.Start(cluster.Config{
		Nodes: n, GridX: n, GridY: 1,
		Bounds:     geom.Rect{Max: geom.Point{X: side, Y: side}},
		Replicated: []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:       cty.Database,
		Opts:       query.Options{Horizon: spec.Horizon, Regions: cat.Regions},
	})
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	defer cl.Close()

	routers := make([]*cluster.Router, updConns)
	for i := range routers {
		r, err := cl.Router(nil)
		if err != nil {
			return nil, fmt.Errorf("router %d: %w", i, err)
		}
		defer r.Close()
		routers[i] = r
	}
	coord := routers[0]

	// The full continuous catalog rides along as merged subscriptions, so
	// per-update cost includes cross-node CQ maintenance and merging.
	for _, tpl := range cat.Continuous() {
		sub, err := coord.Subscribe(tpl.Src, spec.Horizon)
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", tpl.Name, err)
		}
		defer sub.Close()
	}

	byTick := make(map[temporal.Tick][]wire.UpdateOp)
	for _, e := range cty.Events {
		byTick[e.Tick] = append(byTick[e.Tick], wire.UpdateOp{
			Op: wire.OpSetMotion, ID: string(e.Object), VX: e.Vector.X, VY: e.Vector.Y,
		})
	}
	perTick := updateCap / int(spec.Ticks)
	if perTick < 1 {
		perTick = 1
	}

	phase := &ClusterPhase{Nodes: n}
	start := time.Now()
	for tk := temporal.Tick(1); tk <= spec.Ticks && phase.UpdatesApplied < updateCap; tk++ {
		if _, err := coord.Advance(1); err != nil {
			return nil, fmt.Errorf("advance: %w", err)
		}
		ops := byTick[tk]
		// Stride-sample oversized ticks so the capped replay spans the
		// whole event list (same discipline as CityBench).
		if len(ops) > perTick {
			stride := len(ops) / perTick
			sampled := make([]wire.UpdateOp, 0, perTick)
			for i := 0; i < len(ops) && len(sampled) < perTick; i += stride {
				sampled = append(sampled, ops[i])
			}
			ops = sampled
		}
		var (
			wg     sync.WaitGroup
			updErr atomic.Value
		)
		per := (len(ops) + updConns - 1) / updConns
		for w := 0; w < updConns; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > len(ops) {
				hi = len(ops)
			}
			if lo >= hi {
				break
			}
			r, part := routers[w], ops[lo:hi]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for len(part) > 0 {
					k := 64
					if k > len(part) {
						k = len(part)
					}
					if _, err := r.UpdateBatch(part[:k]); err != nil {
						updErr.Store(fmt.Errorf("update batch: %w", err))
						return
					}
					part = part[k:]
				}
			}()
		}
		wg.Wait()
		if err, _ := updErr.Load().(error); err != nil {
			return nil, err
		}
		phase.UpdatesApplied += len(ops)
	}
	elapsed := time.Since(start)
	phase.RunMs = elapsed.Milliseconds()
	if elapsed > 0 {
		phase.UpdatesPerSec = float64(phase.UpdatesApplied) / elapsed.Seconds()
	}

	var qlats []time.Duration
	for round := 0; round < qRounds; round++ {
		for _, tpl := range cat.Instantaneous() {
			t0 := time.Now()
			if _, _, err := coord.Query(tpl.Src, spec.Horizon); err != nil {
				return nil, fmt.Errorf("query %s: %w", tpl.Name, err)
			}
			qlats = append(qlats, time.Since(t0))
		}
	}
	phase.QuerySamples = len(qlats)
	phase.QueryP50Ns = pctDur(qlats, 0.50).Nanoseconds()
	phase.QueryP99Ns = pctDur(qlats, 0.99).Nanoseconds()

	for _, r := range routers {
		st := r.Stats()
		phase.Routing.Sends += st.Sends
		phase.Routing.Hops += st.Hops
		phase.Routing.Regroups += st.Regroups
		phase.Routing.Heals += st.Heals
		phase.Routing.Loops += st.Loops
	}
	for i := 0; i < n; i++ {
		out, _, _, b := cl.Node(i).Stats()
		phase.Handoffs += out
		phase.Bounces += b
	}
	return phase, nil
}

// Table renders the cluster benchmark for the terminal.
func (r *ClusterReport) Table() *Table {
	t := &Table{
		ID:      "CLUSTER",
		Title:   fmt.Sprintf("spatially partitioned cluster vs single node (%d objects, %d routers, loopback TCP)", r.Objects, r.UpdaterConns),
		Claim:   "sharding the plane across nodes raises aggregate sustained update throughput; scatter-gather keeps catalog queries and merged CQs correct at bounded latency",
		Columns: []string{"config", "updates/s", "updates", "handoffs (bounces)", "query p50", "query p99"},
	}
	row := func(label string, p ClusterPhase) {
		t.AddRow(label,
			fmt.Sprintf("%.0f", p.UpdatesPerSec),
			itoa(p.UpdatesApplied),
			fmt.Sprintf("%d (%d)", p.Handoffs, p.Bounces),
			ns(time.Duration(p.QueryP50Ns)), ns(time.Duration(p.QueryP99Ns)))
	}
	row("single node", r.Single)
	row(fmt.Sprintf("%d-node cluster", r.Cluster.Nodes), r.Cluster)
	t.AddRow("speedup", fmt.Sprintf("%.2fx", r.Speedup), "-", "-", "-", "-")
	return t
}
