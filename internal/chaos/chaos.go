// Package chaos is a deterministic end-to-end fault harness for the MOST
// network service: it drives a fleet of live clients against a durable
// server (internal/server.NewDurable) while killing the server process
// state (Abort — the in-process kill -9), severing client connections, and
// partitioning clients behind a closable dialer gate, then proves that
// none of it was observable beyond latency:
//
//   - Committed state is bit-identical to a differential oracle — an
//     in-process most.Database that applied exactly the acknowledged
//     operations — via SnapshotJSON comparison.
//   - Mutations apply exactly once across crash/retry races (the database
//     version, which counts every mutation, matches the oracle's when no
//     checkpoint reset it).
//   - Subscription notification streams are gap-free and duplicate-free
//     across server restarts and reconnects: sequence numbers only
//     increase, consecutive deliveries always differ, and every stream
//     converges to the server's ground-truth answer.
//
// Determinism comes from structure, not timing: every client owns a
// disjoint set of objects, mutation values are pure functions of
// (phase, batch, object), and clock advances happen only at phase
// barriers — so whatever interleaving the scheduler or a mid-phase crash
// produces, the committed state after each phase is a single well-defined
// database.  Scenarios are seeded (workload, backoff jitter) so repeated
// runs exercise the same schedules.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// Gate is a closable dialer: a network partition between one client and
// the server.  Sever fails new dials and kills every live connection the
// gate has made; Heal lets traffic through again.  Wrap it around a
// client with client.WithDialer(gate.Dial).
type Gate struct {
	mu      sync.Mutex
	severed bool
	conns   []net.Conn
}

// ErrPartitioned is returned by a severed Gate's Dial.
var ErrPartitioned = errors.New("chaos: partitioned")

// Dial connects unless the gate is severed, tracking the connection so a
// later Sever can kill it mid-stream.
func (g *Gate) Dial(addr string) (net.Conn, error) {
	g.mu.Lock()
	severed := g.severed
	g.mu.Unlock()
	if severed {
		return nil, ErrPartitioned
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.severed {
		g.mu.Unlock()
		conn.Close()
		return nil, ErrPartitioned
	}
	g.conns = append(g.conns, conn)
	g.mu.Unlock()
	return conn, nil
}

// Sever partitions the gate: live connections die, new dials fail.
func (g *Gate) Sever() {
	g.mu.Lock()
	g.severed = true
	conns := g.conns
	g.conns = nil
	g.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal reopens the gate.
func (g *Gate) Heal() {
	g.mu.Lock()
	g.severed = false
	g.mu.Unlock()
}

// Config parameterizes a harness run.  The zero value is not usable; see
// DefaultConfig.
type Config struct {
	Dir               string // durable data directory (wal.log, checkpoint.bin, dedup.bin)
	Seed              int64  // workload + jitter seed; same seed, same schedule
	Clients           int    // live clients, each owning a disjoint vehicle range
	VehiclesPerClient int
	Batches           int // update batches per client per phase
	CheckpointEvery   int // server auto-checkpoint period (0 = crash recovery replays the full log)
	MaxInflight       int // server admission cap (0 = unbounded)
}

// DefaultConfig is a small fleet that still exercises every code path:
// concurrent committers, streaming subscribers, and a WAL with enough
// records that replay is observable.
func DefaultConfig(dir string, seed int64) Config {
	return Config{
		Dir:               dir,
		Seed:              seed,
		Clients:           4,
		VehiclesPerClient: 8,
		Batches:           3,
	}
}

// subSrc is the continuous query every client subscribes to — a bounded
// Eventually, so the engine maintains it incrementally and motion updates
// change its answer.
const subSrc = `RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 30 INSIDE(o, P)`

const subHorizon = temporal.Tick(50)

// Result is what a scenario measured, for the chaos benchmark.
type Result struct {
	Recoveries []time.Duration // WAL replay + rebuild time, one per restart
	Failovers  []time.Duration // kill → first recommitted mutation, one per client per restart
	Reconnects int64           // successful client reconnects (client.reconnects)
	ResumeRows int64           // answer rows delivered by resume reconciliation
}

// Harness runs one scenario: a durable server, its client fleet, the
// differential oracle, and the per-subscription stream watchers.
type Harness struct {
	cfg    Config
	reg    *obs.Registry
	oracle *most.Database
	phase  int
	probes int

	srv  *server.Server
	addr string

	clients  []*client.Client
	gates    []*Gate
	watchers []*watcher

	res Result
}

// New builds the oracle and the durable server, starts serving, connects
// the client fleet, and registers one subscription per client.
func New(cfg Config) (*Harness, error) {
	h := &Harness{cfg: cfg, reg: obs.New()}
	oracle, err := h.world()
	if err != nil {
		return nil, err
	}
	h.oracle = oracle
	if err := h.startServer(""); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Clients; i++ {
		gate := &Gate{}
		c, err := client.Dial(h.addr,
			client.WithClientID(fmt.Sprintf("chaos-%d", i)),
			client.WithDialer(gate.Dial),
			client.WithRetries(10000),
			client.WithTimeout(10*time.Second),
			client.WithBackoff(2*time.Millisecond, 100*time.Millisecond),
			client.WithJitterSeed(cfg.Seed*1000+int64(i)),
			client.WithObs(h.reg),
		)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.clients = append(h.clients, c)
		h.gates = append(h.gates, gate)
		sub, err := c.Subscribe(subSrc, subHorizon)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.watchers = append(h.watchers, watch(sub))
	}
	return h, nil
}

// world builds the deterministic seed fleet — used identically for the
// server's fresh-start seed and for the oracle.  The last cfg.Clients
// vehicles are the failover-probe targets, disjoint from phase traffic so
// probes commute with in-flight batches.
func (h *Harness) world() (*most.Database, error) {
	return workload.Fleet(workload.FleetSpec{
		N:        h.cfg.Clients*h.cfg.VehiclesPerClient + h.cfg.Clients,
		Region:   geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1000, Y: 1000}},
		MaxSpeed: 3,
		Seed:     h.cfg.Seed,
	})
}

func (h *Harness) serverConfig() server.Config {
	return server.Config{
		Reg:             h.reg,
		Name:            "chaos",
		MaxInflight:     h.cfg.MaxInflight,
		CheckpointEvery: h.cfg.CheckpointEvery,
		BaseOptions: query.Options{
			Horizon: subHorizon,
			Regions: map[string]geom.Polygon{"P": geom.RectPolygon(100, 100, 300, 300)},
		},
	}
}

// startServer recovers (or seeds) the durable server from cfg.Dir and
// serves on addr ("" = a fresh ephemeral port, otherwise the previous
// address so clients reconnect transparently).
func (h *Harness) startServer(addr string) error {
	srv, info, err := server.NewDurable(h.cfg.Dir, h.serverConfig(), func() *most.Database {
		db, err := h.world()
		if err != nil {
			panic(err)
		}
		return db
	})
	if err != nil {
		return fmt.Errorf("chaos: recovery: %w", err)
	}
	if !info.Fresh {
		h.res.Recoveries = append(h.res.Recoveries, info.Elapsed)
	}
	// Rebinding the address a killed server just held can race the
	// kernel's release of the port; retry briefly.
	var ln net.Listener
	bind := addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", bind)
		if err == nil {
			break
		}
		if i > 200 {
			return fmt.Errorf("chaos: rebind %s: %w", bind, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv.Serve(ln)
	h.srv = srv
	h.addr = ln.Addr().String()
	return nil
}

// Kill hard-stops the server as a crash would: no drain, no checkpoint,
// no goodbye to sessions.
func (h *Harness) Kill() {
	h.srv.Abort()
}

// Restart recovers the durable state and serves again on the same
// address, then measures per-client failover: the time until each client
// commits a mutation again (retries ride out the dead window).
func (h *Harness) Restart() error {
	if err := h.startServer(h.addr); err != nil {
		return err
	}
	n := h.probes
	h.probes++
	start := time.Now()
	lat := make([]time.Duration, len(h.clients))
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for i, c := range h.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			errs[i] = h.commit(c, h.probeOps(i, n))
			lat[i] = time.Since(start)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos: client %d failover: %w", i, err)
		}
		h.applyOracle(h.probeOps(i, n))
		h.res.Failovers = append(h.res.Failovers, lat[i])
	}
	return nil
}

// probeOps is the failover probe: one deterministic mutation per client
// on that client's dedicated probe vehicle (outside every phase range, so
// a probe commutes with whatever batches are still in flight).  n is the
// probe round, making successive probe values distinct.
func (h *Harness) probeOps(i, n int) []wire.UpdateOp {
	v := h.cfg.Clients*h.cfg.VehiclesPerClient + i
	return []wire.UpdateOp{{
		Op: wire.OpSetMotion,
		ID: vehicleID(v),
		VX: float64((n*17+i*5)%9) - 4,
		VY: float64((n*7+i*3)%9) - 4,
	}}
}

func vehicleID(v int) string { return fmt.Sprintf("car-%05d", v) }

// opsFor is the deterministic mutation schedule: client i's batch b in
// the current phase, one motion update per owned vehicle.  Values are
// pure functions of (phase, batch, vehicle), so the oracle can apply the
// identical operations.
func (h *Harness) opsFor(i, b int) []wire.UpdateOp {
	ops := make([]wire.UpdateOp, 0, h.cfg.VehiclesPerClient)
	for k := 0; k < h.cfg.VehiclesPerClient; k++ {
		v := i*h.cfg.VehiclesPerClient + k
		ops = append(ops, wire.UpdateOp{
			Op: wire.OpSetMotion,
			ID: vehicleID(v),
			VX: float64((h.phase*31+b*7+v)%11) - 5,
			VY: float64((h.phase*13+b*3+v*5)%11) - 5,
		})
	}
	return ops
}

// commit sends one batch on one client.  The client's own retry loop —
// one request ID, retransmitted under backoff — is the only retry: a
// second call would mint a new ID and could double-apply, so transport
// exhaustion is a harness failure, not something to paper over.
func (h *Harness) commit(c *client.Client, ops []wire.UpdateOp) error {
	resp, err := c.UpdateBatch(ops)
	if err != nil {
		return err
	}
	if resp.Applied != len(ops) {
		return fmt.Errorf("chaos: batch applied %d of %d ops", resp.Applied, len(ops))
	}
	return nil
}

func (h *Harness) applyOracle(ops []wire.UpdateOp) {
	for _, op := range ops {
		if err := h.oracle.SetMotion(most.ObjectID(op.ID), geom.Vector{X: op.VX, Y: op.VY}); err != nil {
			panic(fmt.Sprintf("chaos: oracle diverged: %v", err))
		}
	}
}

// RunPhase drives every client through its batches concurrently, then —
// at the barrier, with the server quiesced — applies the same operations
// to the oracle and advances both clocks one tick.  disrupt, if non-nil,
// runs concurrently with the traffic (kill the server, sever a gate, ...)
// and must leave the server reachable before it returns.
func (h *Harness) RunPhase(disrupt func() error) error {
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for i, c := range h.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for b := 0; b < h.cfg.Batches; b++ {
				if err := h.commit(c, h.opsFor(i, b)); err != nil {
					errs[i] = fmt.Errorf("client %d batch %d: %w", i, b, err)
					return
				}
			}
		}(i, c)
	}
	var disruptErr error
	if disrupt != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			disruptErr = disrupt()
		}()
	}
	wg.Wait()
	if disruptErr != nil {
		return disruptErr
	}
	for i := range h.clients {
		if errs[i] != nil {
			return errs[i]
		}
		for b := 0; b < h.cfg.Batches; b++ {
			h.applyOracle(h.opsFor(i, b))
		}
	}
	// Barrier: all traffic acknowledged; advance both clocks in lockstep.
	now, err := h.clients[0].Advance(1)
	if err != nil {
		return fmt.Errorf("chaos: advance: %w", err)
	}
	if got := h.oracle.Advance(1); got != now {
		return fmt.Errorf("chaos: clock diverged: server %d, oracle %d", now, got)
	}
	h.phase++
	return nil
}

// Verify proves the run was invisible: server state bit-identical to the
// oracle, every subscription stream clean and converged to ground truth.
// checkVersion additionally asserts the mutation count matches — valid
// only when no checkpoint ran, since restoring from a checkpoint resets
// the version counter.
func (h *Harness) Verify(checkVersion bool) error {
	theirs, err := h.clients[0].SnapshotSave()
	if err != nil {
		return fmt.Errorf("chaos: snapshot: %w", err)
	}
	ours, err := h.oracle.SnapshotJSON()
	if err != nil {
		return err
	}
	if string(theirs) != string(ours) {
		return fmt.Errorf("chaos: committed state diverged from oracle (server %d bytes, oracle %d bytes)", len(theirs), len(ours))
	}
	if checkVersion {
		// One more probed mutation on each side exposes the version
		// counter: equal counts = every acknowledged mutation applied
		// exactly once, no duplicate slipped in through a crash retry.
		n := h.probes
		h.probes++
		resp, err := h.clients[0].UpdateBatch(h.probeOps(0, n))
		if err != nil {
			return err
		}
		h.applyOracle(h.probeOps(0, n))
		if want := h.oracle.Version(); resp.Version != want {
			return fmt.Errorf("chaos: exactly-once violated: server version %d, oracle %d", resp.Version, want)
		}
	}

	// Ground truth for the streams: the rows a fresh subscription's
	// initial answer presents at the current tick.
	truthSub, err := h.clients[0].Subscribe(subSrc, subHorizon)
	if err != nil {
		return fmt.Errorf("chaos: truth subscribe: %w", err)
	}
	defer truthSub.Close()
	truthAns, _, _ := truthSub.Answer()
	now := h.oracle.Now() // == server clock, proven by the snapshot check
	truth := canonicalRowsAt(truthAns, now)
	for i, w := range h.watchers {
		if err := w.verify(truth, now, 5*time.Second); err != nil {
			return fmt.Errorf("chaos: subscriber %d: %w", i, err)
		}
	}
	h.res.Reconnects = counterValue(h.reg, "client.reconnects")
	h.res.ResumeRows = counterValue(h.reg, "client.resume_gap_rows")
	return nil
}

// Result returns what the run measured so far.
func (h *Harness) Result() Result { return h.res }

// Checkpoint forces a durable checkpoint, as the auto-checkpoint cadence
// or an operator would.
func (h *Harness) Checkpoint() error { return h.srv.Checkpoint() }

// Gates exposes the per-client partition gates, in client order.
func (h *Harness) Gates() []*Gate { return h.gates }

// Shutdown drains the server cleanly (checkpointing durable state).
func (h *Harness) Shutdown(timeout time.Duration) error {
	return shutdownServer(h.srv, timeout)
}

// Close releases everything; safe after partial construction and after
// Kill.
func (h *Harness) Close() {
	for _, w := range h.watchers {
		w.stop()
	}
	for _, c := range h.clients {
		c.Close()
	}
	if h.srv != nil {
		h.srv.Abort()
	}
}

// Scrub removes the durable directory, for scenarios that restart from
// scratch.
func Scrub(dir string) error { return os.RemoveAll(dir) }
