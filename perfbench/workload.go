package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// workload is one traffic mix.  Every workload replays its city's motion
// schedule from one updater connection in a closed loop (the next request
// goes out only after the previous one is acknowledged), with a probe flip
// every flipEvery batches and an instantaneous query every queryEvery
// batches; the subscriber connection holds the sentinel CQ and, on
// cq_city, the city's continuous queries.  The amount of work is fixed by
// the arguments: opsPerSec * seconds motion updates, whatever their speed.
type workload struct {
	name string
	spec city.Spec
	// durable serves the city with server.NewDurable at the shipped
	// mostserver cadence (a checkpoint every checkpointEvery mutating
	// requests); otherwise server.New with no WAL.
	durable bool
	// subs is the number of city continuous-query subscriptions.
	subs       int
	batchOps   int
	flipEvery  int
	queryEvery int
	// families are the instantaneous catalog families the query rig cycles.
	families []string
	// reads > 0 replaces the in-phase query rig with a read probe of that
	// many queries after the measured phase, on the final state with no
	// writes in flight, so the phase itself carries no reads.
	reads int
	// opsPerSec is the nominal rate that turns --seconds into a fixed
	// number of motion updates; it is near the rate the workload reached on
	// a 2-core x86 VM, so a run measures about --seconds there.
	opsPerSec float64
	// checkEvery: every checkEvery-th query answer is checked against the
	// replica.
	checkEvery int
	// setups is how many times set-up runs (setup_s is their median);
	// restarts is how many Abort -> NewDurable recoveries run
	// (recovery_s is their median).
	setups   int
	restarts int
	// sideOps is the length of the durability probe a non-durable workload
	// runs after its measured phase (see durableProbe).
	sideOps int
}

const checkpointEvery = 256 // mostserver -checkpoint-every default

var allFamilies = []string{"range_district", "trajectory_window", "poi_approach", "nearest_poi", "bus_meet"}

// bigCity is the 100k-object city of mostbench -city; midCity is the
// mid-size city the CQ and query workloads share.
func bigCity(seed int64) city.Spec {
	return city.Spec{Seed: seed, Cars: 100_000, Buses: 48,
		GridW: 48, GridH: 48, DistrictsX: 6, DistrictsY: 6, POIsPerDistrict: 4,
		Ticks: 10, Horizon: 20, TurnProb: 0.12, ReturnFrac: 0.2}
}

func midCity(seed int64) city.Spec {
	return city.Spec{Seed: seed, Cars: 15_000, Buses: 24,
		GridW: 24, GridH: 24, DistrictsX: 4, DistrictsY: 4, POIsPerDistrict: 3,
		Ticks: 10, Horizon: 20, TurnProb: 0.12, ReturnFrac: 0.2}
}

func workloads(seed int64) map[string]*workload {
	return map[string]*workload{
		"ingest_durable": {
			name: "ingest_durable", spec: bigCity(seed), durable: true,
			batchOps: 64, flipEvery: 8, families: []string{"bus_meet"}, reads: 100,
			opsPerSec: 10_000, checkEvery: 1, setups: 3, restarts: 3,
		},
		"cq_city": {
			name: "cq_city", spec: midCity(seed), subs: 600,
			batchOps: 16, flipEvery: 1, families: []string{"bus_meet"}, reads: 200,
			opsPerSec: 200, checkEvery: 1, setups: 3, restarts: 9, sideOps: 64 * 320,
		},
		"query_mix": {
			name: "query_mix", spec: midCity(seed),
			batchOps: 64, flipEvery: 4, queryEvery: 4, families: allFamilies,
			opsPerSec: 7_000, checkEvery: 4, setups: 3, restarts: 9, sideOps: 64 * 320,
		},
	}
}

// scaled shrinks a workload for the benchmark's own test.
func (w *workload) scaled(f float64) {
	if f >= 1 {
		return
	}
	w.spec.Cars = max(200, int(float64(w.spec.Cars)*f))
	w.subs = int(math.Ceil(float64(w.subs) * f))
	w.opsPerSec *= f
	w.sideOps = max(w.batchOps*4, int(float64(w.sideOps)*f))
	w.setups, w.restarts = 2, 2
}

// The sentinel probe rig: a probe object in its own class, parked east of
// a SENTINEL box outside the city, and a sentinel CQ that holds the probe
// exactly while it is heading for the box.  A flip "on" points it at the
// box (reachable inside the sentinel window), a flip "off" parks it again;
// flips come in on/off pairs inside one tick, so the probe is parked at
// every clock advance and never drifts.  Car updates never touch the
// Probes class, so a flip's notification is the only one the sentinel
// subscription ever receives.
const (
	sentinelRegion = "SENTINEL"
	probeID        = "probe-000"
	sentinelWindow = 5
	probeSpeed     = 100.0
)

var probeClass = most.MustClass("Probes", true)

func sentinelSrc() string {
	return fmt.Sprintf("RETRIEVE p FROM Probes p WHERE EVENTUALLY WITHIN %d INSIDE(p, %s)", sentinelWindow, sentinelRegion)
}

// cityDB materializes the city at tick 0 plus the parked probe.
func cityDB(c *city.City) (*most.Database, error) {
	db, err := c.Database()
	if err != nil {
		return nil, fmt.Errorf("city database: %w", err)
	}
	if err := db.DefineClass(probeClass); err != nil {
		return nil, err
	}
	o, err := most.NewObject(probeID, probeClass)
	if err != nil {
		return nil, err
	}
	if o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: -1150, Y: -1500}, geom.Vector{}, 0)); err != nil {
		return nil, err
	}
	return db, db.Insert(o)
}

// queryOptions names every region the catalog derives from the city (all
// districts and POI rings) plus the sentinel box.
func queryOptions(c *city.City, cat *city.Catalog) query.Options {
	regions := make(map[string]geom.Polygon, len(cat.Regions)+1)
	for name, pg := range cat.Regions {
		regions[name] = pg
	}
	regions[sentinelRegion] = geom.RectPolygon(-1550, -1550, -1450, -1450)
	return query.Options{Horizon: c.Spec.Horizon, Regions: regions}
}

// templates instantiates the city catalog's template families (the FTL
// shapes of city.Catalog) over every district, POI and bus line, not over
// the catalog's seeded draw of four districts and four POIs: which few
// districts the draw picks changes a query's answer size, and with it the
// cost of a run, several-fold from one seed to the next.  Over the whole
// city the load is an average that repeats across seeds.
func templates(c *city.City) (cont, inst []city.Template) {
	s := c.Spec
	wHalf, wQuarter := max(1, s.Horizon/2), max(1, s.Horizon/4)
	add := func(out *[]city.Template, family, instance, kind, src string) {
		*out = append(*out, city.Template{Family: family, Name: family + "/" + instance, Kind: kind, Src: src})
	}
	for _, d := range c.Districts {
		src := fmt.Sprintf("RETRIEVE o FROM Cars o WHERE INSIDE(o, %s)", d.Name)
		add(&cont, "range_district", d.Name, city.ContinuousCQ, src)
		add(&inst, "range_district", d.Name, city.Instantaneous, src)
		add(&inst, "trajectory_window", d.Name, city.Instantaneous,
			fmt.Sprintf("RETRIEVE o FROM Cars o WHERE ALWAYS FOR %d INSIDE(o, %s)", wQuarter, d.Name))
	}
	for i := 0; i+1 < len(c.Districts); i += 2 {
		a, b := c.Districts[i].Name, c.Districts[i+1].Name
		add(&cont, "corridor", a+"_"+b, city.ContinuousCQ,
			fmt.Sprintf("RETRIEVE o FROM Cars o WHERE EVENTUALLY WITHIN %d INSIDE(o, %s) AND EVENTUALLY WITHIN %d INSIDE(o, %s)",
				wHalf, a, wHalf, b))
	}
	for _, p := range c.POIs {
		src := fmt.Sprintf("RETRIEVE o FROM Cars o WHERE EVENTUALLY WITHIN %d INSIDE(o, %s)", wHalf, p.Region)
		add(&cont, "poi_approach", p.Region, city.ContinuousCQ, src)
		add(&inst, "poi_approach", p.Region, city.Instantaneous, src)
		add(&inst, "nearest_poi", p.Region, city.Instantaneous,
			fmt.Sprintf("RETRIEVE o FROM Cars o WHERE INSIDE(o, %s)", p.Region))
	}
	for _, b := range c.Buses {
		add(&cont, "follow_bus", b.Plate, city.ContinuousCQ,
			fmt.Sprintf(`RETRIEVE n FROM Buses n, Buses t WHERE t.PLATE = "%s" AND EVENTUALLY WITHIN %d DIST(n, t) <= %g`,
				b.Plate, wQuarter, 2*s.Block))
	}
	add(&inst, "bus_meet", "stations", city.Instantaneous,
		fmt.Sprintf(`RETRIEVE b, p FROM Buses b, POIs p WHERE p.KIND = "station" AND DIST(b, p) <= %g`, 1.5*s.Block))
	return cont, inst
}

// subscriberMix spreads n subscriptions over the continuous templates
// with the weights mostbench -city uses: two each for the heavy
// large-answer families, the rest round-robin over the delta-friendly ones.
func subscriberMix(conts []city.Template, n int) []city.Template {
	var heavy, cheap []city.Template
	for _, tpl := range conts {
		switch tpl.Family {
		case "range_district", "corridor":
			heavy = append(heavy, tpl)
		default:
			cheap = append(cheap, tpl)
		}
	}
	out := make([]city.Template, 0, n)
	for _, tpl := range heavy {
		for k := 0; k < 2 && len(out) < n; k++ {
			out = append(out, tpl)
		}
	}
	for i := 0; len(out) < n && len(cheap) > 0; i++ {
		out = append(out, cheap[i%len(cheap)])
	}
	return out
}

func byFamily(tpls []city.Template, families []string) []city.Template {
	want := map[string]bool{}
	for _, f := range families {
		want[f] = true
	}
	var out []city.Template
	for _, tpl := range tpls {
		if want[tpl.Family] {
			out = append(out, tpl)
		}
	}
	return out
}

// step is one request of the op stream: an optional clock advance, one
// UpdateBatch (whose last op may be a probe flip), and an optional query
// after the acknowledgement.
type step struct {
	advance bool
	ops     []wire.UpdateOp
	flip    int // +1 probe on, -1 probe off, 0 none
	query   int // index into the query templates, -1 none
}

func flipOp(on bool) wire.UpdateOp {
	op := wire.UpdateOp{Op: wire.OpSetMotion, ID: probeID}
	if on {
		op.VX = -probeSpeed
	}
	return op
}

// buildSteps compiles the first n motion updates of the city's schedule,
// cycling it if n exceeds it, into the workload's request stream.  Each
// schedule tick starts with a clock advance and is cut into batchOps-op
// batches; a later cycle keeps advancing the clock.
func buildSteps(c *city.City, w *workload, n, nQueries int) []step {
	var steps []step
	done := 0
	for done < n && len(c.Events) > 0 {
		for i := 0; i < len(c.Events) && done < n; {
			tick := c.Events[i].Tick
			first := true
			for i < len(c.Events) && c.Events[i].Tick == tick && done < n {
				st := step{advance: first, query: -1}
				first = false
				for len(st.ops) < w.batchOps && i < len(c.Events) && c.Events[i].Tick == tick && done < n {
					e := c.Events[i]
					st.ops = append(st.ops, wire.UpdateOp{Op: wire.OpSetMotion, ID: string(e.Object), VX: e.Vector.X, VY: e.Vector.Y})
					i++
					done++
				}
				steps = append(steps, st)
			}
		}
	}
	on := false
	q := 0
	for i := range steps {
		lastInTick := i+1 == len(steps) || steps[i+1].advance
		switch {
		case on:
			steps[i].flip = -1
		case w.flipEvery > 0 && i%w.flipEvery == w.flipEvery-1 && !lastInTick:
			steps[i].flip = 1
		}
		if steps[i].flip != 0 {
			on = steps[i].flip > 0
			steps[i].ops = append(steps[i].ops, flipOp(on))
		}
		if w.queryEvery > 0 && nQueries > 0 && i%w.queryEvery == w.queryEvery-1 {
			steps[i].query = q % nQueries
			q++
		}
	}
	return steps
}

func cityOps(steps []step) int {
	n := 0
	for _, st := range steps {
		n += len(st.ops)
	}
	return n
}

// applyStep feeds one step to an in-process database, as the server does.
func applyStep(db *most.Database, st step) error {
	if st.advance {
		db.Advance(1)
	}
	for _, op := range st.ops {
		if err := db.SetMotion(most.ObjectID(op.ID), geom.Vector{X: op.VX, Y: op.VY}); err != nil {
			return fmt.Errorf("replica %s: %w", op.ID, err)
		}
	}
	return nil
}

// env is one set-up workload: the city, the served database, and the two
// client connections.
type env struct {
	w      *workload
	c      *city.City
	inst   []city.Template // every instantaneous template
	opts   query.Options
	reg    *obs.Registry
	srv    *server.Server
	dir    string
	upd    *client.Client // updater: batches, advances, queries
	subc   *client.Client // subscriber: city CQs and the sentinel
	subs   []*client.Subscription
	subSrc []string
	sent   *client.Subscription
	qtpls  []city.Template
	// want is the SnapshotJSON of the replica fed the whole stream, which
	// the recovered durable server must reproduce.
	want []byte
	// acked counts the updates the server acknowledged since the warm-up.
	acked int
}

func serverConfig(w *workload, opts query.Options, reg *obs.Registry) server.Config {
	if w.durable {
		return durableConfig(opts, reg)
	}
	return server.Config{BaseOptions: opts, Reg: reg}
}

func durableConfig(opts query.Options, reg *obs.Registry) server.Config {
	return server.Config{BaseOptions: opts, Reg: reg, CheckpointEvery: checkpointEvery}
}

func dial(addr, id string) (*client.Client, error) {
	cl, err := client.Dial(addr, client.WithClientID(id), client.WithTimeout(2*time.Minute))
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", id, err)
	}
	return cl, nil
}

// setup builds a workload from its seed: generate the city, materialize
// the database, start the server on loopback, connect both clients and
// register every subscription.  setup_s times all of it.
func setup(w *workload, dir string, tr *tracer) (*env, error) {
	e := &env{w: w, dir: dir, reg: obs.New()}
	sp := tr.begin("city.generate", -1, -1)
	c, err := city.Generate(w.spec)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	e.c = c
	e.opts = queryOptions(c, c.Catalog())
	var conts []city.Template
	conts, e.inst = templates(c)
	e.qtpls = byFamily(e.inst, w.families)

	sp = tr.begin("city.database", -1, -1)
	db, err := cityDB(c)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("server.start", -1, -1)
	cfg := serverConfig(w, e.opts, e.reg)
	if w.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		e.srv, _, err = server.NewDurable(dir, cfg, func() *most.Database { return db })
		if err != nil {
			return nil, fmt.Errorf("durable server: %w", err)
		}
	} else {
		e.srv = server.New(db, query.NewEngine(db), cfg)
	}
	if err := e.srv.ListenAndServe("127.0.0.1:0"); err != nil {
		e.teardown()
		return nil, fmt.Errorf("serve: %w", err)
	}
	tr.end(sp)
	addr := e.srv.Addr().String()
	if e.upd, err = dial(addr, "perfbench-upd"); err != nil {
		e.teardown()
		return nil, err
	}
	if e.subc, err = dial(addr, "perfbench-sub"); err != nil {
		e.teardown()
		return nil, err
	}
	for _, tpl := range subscriberMix(conts, w.subs) {
		sp := tr.begin("client.subscribe", -1, -1)
		sub, err := e.subc.Subscribe(tpl.Src, c.Spec.Horizon)
		tr.end(sp)
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("subscribe %s: %w", tpl.Name, err)
		}
		e.subs = append(e.subs, sub)
		e.subSrc = append(e.subSrc, tpl.Src)
	}
	sp = tr.begin("client.subscribe", -1, -1)
	e.sent, err = e.subc.Subscribe(sentinelSrc(), c.Spec.Horizon)
	tr.end(sp)
	if err != nil {
		e.teardown()
		return nil, fmt.Errorf("sentinel subscribe: %w", err)
	}
	return e, nil
}

func (e *env) closeClients() {
	if e.upd != nil {
		e.upd.Close()
		e.upd = nil
	}
	if e.subc != nil {
		e.subc.Close()
		e.subc = nil
	}
}

// teardown stops everything setup started.  A durable server is aborted,
// not drained: a clean shutdown would add a full checkpoint nobody reads.
func (e *env) teardown() {
	e.closeClients()
	if e.srv != nil {
		if e.w.durable {
			e.srv.Abort()
		} else {
			e.srv.Close()
		}
		e.srv = nil
	}
	if e.w.durable {
		os.RemoveAll(e.dir)
	}
}

// setupRepeated runs set-up w.setups times and keeps the last; earlier
// ones are torn down.  Set-up is a one-off event per run, so its median
// over several repetitions is what repeats between runs.
func setupRepeated(w *workload, dir string) (*env, []float64, error) {
	var times []float64
	var e *env
	for i := 0; i < w.setups; i++ {
		if e != nil {
			e.teardown()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(w, dir, nil); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

// arrival is one sentinel notification as the watcher saw it.
type arrival struct {
	seq uint64
	on  bool
	at  time.Time
	err error
}

// watch is the second load goroutine: it timestamps every sentinel
// notification the moment the subscription signals it.
func watch(sub *client.Subscription, out chan<- arrival, stop <-chan struct{}) {
	var last uint64
	for {
		select {
		case <-sub.Updates():
		case <-stop:
			return
		}
		at := time.Now()
		rows, seq, err := sub.Answer()
		if err == nil && seq == last {
			continue
		}
		last = seq
		select {
		case out <- arrival{seq: seq, on: len(rows) > 0, at: at, err: err}:
		case <-stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// loadStats is what one pass of the closed loop measured.
type loadStats struct {
	updLat  []float64 // ms per UpdateBatch, send to ack
	qLat    []float64 // ms per query
	nLat    []float64 // ms per probe flip, batch send to notification
	ops     int       // updates acknowledged as applied
	tries   int
	failed  int
	answers []queryAnswer
	cost    phaseCost
	windows []window
}

// window is one of the equal-length slices (in requests) a phase is cut
// into; a rate is reported as its median over the windows, so a stall in
// one slice (a collection, a neighbour on the host) does not move it.
type window struct {
	wall, cpu time.Duration
	ops       int
	// end offsets into the phase's latency samples
	upd, notify, query int
}

const windowsPerPhase = 8

// windowQuantile is the median over the windows of each window's
// q-quantile of the samples xs, where end(w) is the window's end offset
// into xs.  Windows with fewer than 10 samples are skipped.
func (ls *loadStats) windowQuantile(xs []float64, end func(window) int, q float64) float64 {
	var per []float64
	start := 0
	for _, w := range ls.windows {
		if e := end(w); e-start >= 10 {
			per = append(per, quantile(xs[start:e], q))
			start = e
		}
	}
	if len(per) == 0 {
		return quantile(xs, q)
	}
	return median(per)
}

func (ls *loadStats) medianRates() (perSec, cpuUsPerOp float64) {
	var rate, cpu []float64
	for _, w := range ls.windows {
		if w.ops > 0 {
			rate = append(rate, float64(w.ops)/w.wall.Seconds())
			cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/float64(w.ops))
		}
	}
	return median(rate), median(cpu)
}

// queryAnswer is a served query answer kept for checking against the
// replica after the run.
type queryAnswer struct {
	step  int
	tpl   int
	now   temporal.Tick
	canon string
}

const notifyDeadline = 5 * time.Second

const readProbeGroup = 10

// drive runs steps [from, to) through the closed loop.  With no arrivals
// channel the sentinel rig is off (flip ops are sent but not awaited), and
// with no query templates the query rig is off.  After a batch
// carrying a flip, the updater waits for the flip's notification before
// it sends anything else, so exactly one flip is ever in flight; a flip
// whose notification misses the deadline is a failure, and its latency
// sample is the deadline, never dropped.
func (e *env) drive(steps []step, from, to int, arrivals <-chan arrival, sentSeq *uint64, tr *tracer) (*loadStats, error) {
	ls := &loadStats{}
	meter, err := startPhase()
	if err != nil {
		return nil, err
	}
	misses := 0
	winStart, winCPU, winOps := time.Now(), cpuTime(), 0
	winLen := max(1, (to-from)/windowsPerPhase)
	for i := from; i < to; i++ {
		if k := i - from; k > 0 && k%winLen == 0 {
			now, cpu := time.Now(), cpuTime()
			ls.windows = append(ls.windows, window{wall: now.Sub(winStart), cpu: cpu - winCPU, ops: ls.ops - winOps,
				upd: len(ls.updLat), notify: len(ls.nLat), query: len(ls.qLat)})
			winStart, winCPU, winOps = now, cpu, ls.ops
		}
		st := steps[i]
		if st.advance {
			sp := tr.begin("client.advance", i, -1)
			_, err := e.upd.Advance(1)
			tr.end(sp)
			ls.tries++
			if err != nil {
				ls.failed++
				return ls, fmt.Errorf("advance: %w", err)
			}
		}
		sp := tr.begin("client.update_batch", i, -1)
		sent := time.Now()
		resp, err := e.upd.UpdateBatch(st.ops)
		lat := time.Since(sent)
		tr.end(sp)
		ls.tries++
		ls.updLat = append(ls.updLat, ms(lat))
		if err != nil || resp.Applied != len(st.ops) {
			ls.failed++
			return ls, fmt.Errorf("update batch %d: applied %d of %d: %v", i, resp.Applied, len(st.ops), err)
		}
		ls.ops += resp.Applied
		if st.flip != 0 && arrivals != nil {
			ls.tries++
			*sentSeq++
			sp := tr.begin("client.notify", i, -1)
			select {
			case a := <-arrivals:
				tr.end(sp)
				ls.nLat = append(ls.nLat, ms(a.at.Sub(sent)))
				if a.err != nil || a.seq != *sentSeq || a.on != (st.flip > 0) {
					ls.failed++
					return ls, fmt.Errorf("flip %d: notification seq %d on=%v err=%v, want seq %d on=%v",
						i, a.seq, a.on, a.err, *sentSeq, st.flip > 0)
				}
				misses = 0
			case <-time.After(notifyDeadline):
				tr.end(sp)
				ls.nLat = append(ls.nLat, ms(notifyDeadline))
				ls.failed++
				if misses++; misses >= 3 {
					return ls, fmt.Errorf("flip %d: three notifications in a row missed the %v deadline", i, notifyDeadline)
				}
			}
		}
		if st.query >= 0 && len(e.qtpls) > 0 {
			tpl := e.qtpls[st.query]
			sp := tr.begin("client.query", i, -1)
			t0 := time.Now()
			now, rows, err := e.upd.Query(tpl.Src, e.c.Spec.Horizon)
			ls.qLat = append(ls.qLat, ms(time.Since(t0)))
			tr.end(sp)
			ls.tries++
			if err != nil {
				ls.failed++
				return ls, fmt.Errorf("query %s: %w", tpl.Name, err)
			}
			if nq := len(ls.qLat); nq%e.w.checkEvery == 0 {
				ls.answers = append(ls.answers, queryAnswer{step: i, tpl: st.query, now: now, canon: canonRows(rows)})
			}
		}
	}
	ls.windows = append(ls.windows, window{wall: time.Since(winStart), cpu: cpuTime() - winCPU, ops: ls.ops - winOps,
		upd: len(ls.updLat), notify: len(ls.nLat), query: len(ls.qLat)})
	ls.cost, err = meter.stop()
	return ls, err
}

// readProbe runs n queries cycling the workload's templates against the
// final state and keeps every answer for the checks as of the last step.
// It collects garbage before every readProbeGroup queries, outside the
// timings: on the 100k city each query snapshots every object, and a
// collection that lands on some of the probe's queries and not others
// would decide its p90, not the query path.
func (e *env) readProbe(n, last int, tr *tracer) (*loadStats, error) {
	ls := &loadStats{}
	for k := 0; k < n; k++ {
		if k%readProbeGroup == 0 {
			runtime.GC()
		}
		tpl := e.qtpls[k%len(e.qtpls)]
		sp := tr.begin("client.query", last, -1)
		t0 := time.Now()
		now, rows, err := e.upd.Query(tpl.Src, e.c.Spec.Horizon)
		ls.qLat = append(ls.qLat, ms(time.Since(t0)))
		tr.end(sp)
		ls.tries++
		if err != nil {
			ls.failed++
			return ls, fmt.Errorf("query %s: %w", tpl.Name, err)
		}
		ls.answers = append(ls.answers, queryAnswer{step: last, tpl: k % len(e.qtpls), now: now, canon: canonRows(rows)})
	}
	return ls, nil
}

// canonRows canonicalizes instantaneous rows (no intervals) with the wire
// package's comparison key.
func canonRows(rows [][]wire.Value) string {
	ans := make([]wire.AnswerRow, len(rows))
	for i, r := range rows {
		ans[i] = wire.AnswerRow{Vals: r}
	}
	return wire.CanonicalAnswers(ans)
}

// startWatch starts the notification watcher on the sentinel.
func (e *env) startWatch() (<-chan arrival, func()) {
	arrivals := make(chan arrival)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		watch(e.sent, arrivals, stop)
	}()
	return arrivals, func() {
		close(stop)
		<-done
	}
}

func dataDir(out, w string) string { return filepath.Join(out, "data-"+w) }
