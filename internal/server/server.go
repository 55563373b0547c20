// Package server is the MOST network service: a TCP server exposing a
// most.Database and query.Engine over the internal/wire protocol, with
// per-connection sessions, request pipelining, batched update application,
// and server-push streaming of continuous-query notifications over
// long-lived connections.
//
// # Protocol versions
//
// The server speaks protocol version 2 (the compact binary codec, see
// PROTOCOL.md) and version 3 (version 2 plus delta NOTIFYs).  Every
// session starts at version 2; the Hello handshake negotiates
// min(client max, Config.MaxProtocol) and the session switches to the
// negotiated version for all subsequent frames.  A frame carrying any
// other version after negotiation is a protocol violation: the server
// counts it (server.protocol_violations), pushes a best-effort error
// frame, and disconnects the session.
//
// # Sessions and backpressure
//
// Each accepted connection gets one session: a reader goroutine decoding
// and dispatching requests in arrival order (the transport pipelines —
// clients need not wait for one answer before sending the next request),
// and a writer goroutine owning every write to the connection.  All
// outbound frames pass through a bounded per-session queue.
//
// Continuous-query notifications must never let one slow client stall
// commits or other sessions, so they take a three-stage path: the engine's
// maintenance callback (which runs on the updater's commit path) only
// records the install's patch in the plan's wire state and stores the
// install in a per-subscription mailbox — it never blocks on the
// connection; a per-subscription pump goroutine turns the newest install
// into a NOTIFY and enqueues it, coalescing rounds that arrive while the
// connection is backed up (on a version-3 session the NOTIFY is the delta
// from the answer the client holds, composed from the plan's recent
// patches); and the writer drains the queue to the socket.  If the pump cannot enqueue, or the
// writer cannot complete a write, within Config.WriteBudget, the session
// is a slow consumer: it is disconnected (counted in
// server.slow_consumer_disconnects) and everyone else proceeds.
//
// # Idempotent retries
//
// A client that says Hello with a ClientID gets exactly-once application
// of its mutating requests across reconnects: the server keeps a bounded
// per-client cache of executed request IDs and their responses, so a
// request retried after a connection failure is answered from the cache
// instead of being applied twice — the reliable-delivery semantics of
// internal/faults on a real socket.
//
// # Observability
//
// With Config.Reg set, the server maintains connection and subscription
// gauges, frame counters, per-opcode latency histograms
// (server.op_ns.<opcode>), pure apply-path latency (server.apply_ns),
// slow-consumer/dedup counters, and the push path's counters:
// server.notifies (NOTIFYs sent), server.notifies_coalesced (rounds folded
// into a later NOTIFY), server.notify_delta / server.notify_reset (NOTIFYs
// sent in the delta / full form), server.notify_rows (answer rows and
// departed instantiations put on the wire), and server.conv_hits /
// server.conv_misses (full answers served from / converted into a plan's
// cached rows).  All are surfaced on the existing /obs + /debug/pprof mux
// (obs.NewServeMux).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// Config tunes a Server.  The zero value serves with sane defaults.
type Config struct {
	// MaxProtocol caps the protocol version the server negotiates in the
	// Hello handshake: 2 forces full NOTIFYs for every session, and 3
	// (wire.MaxProtocolVersion, the default) allows delta NOTIFYs; clients
	// capped at 2 keep working at their own maximum.  Values <= 0 or above
	// wire.MaxProtocolVersion select the default, and 1 acts as 2.
	MaxProtocol int
	// OutQueue is the per-session outbound frame queue length (default 256).
	OutQueue int
	// WriteBudget is the slow-consumer budget: the longest a frame may wait
	// to enter a session's queue, or a single write may take, before the
	// session is disconnected (default 5s).
	WriteBudget time.Duration
	// BaseOptions seed every query evaluation: regions and index.
	// Per-request horizons override BaseOptions.Horizon.
	BaseOptions query.Options
	// Reg receives the server's metrics; nil disables instrumentation.
	Reg *obs.Registry
	// Name is the server identity reported in the Hello response.
	Name string
	// MaxInflight caps requests executing concurrently across all sessions
	// (admission control).  A request arriving with the cap exhausted is
	// shed immediately with ErrorResp code "overloaded" — never queued,
	// never executed, never entered into the idempotence cache — so an
	// overloaded server stays responsive instead of collapsing.  0 (the
	// default) disables shedding.  Hello and Ping are never shed.
	MaxInflight int
	// Health, when set, tracks the server lifecycle (recovering → ready →
	// draining) for /healthz + /readyz (obs.Health.Mount).  Nil disables.
	Health *obs.Health
	// CheckpointEvery makes a durable server (NewDurable) checkpoint after
	// every N mutating requests; 0 checkpoints only on explicit Checkpoint
	// calls and clean Shutdown.  Ignored by plain New servers.
	CheckpointEvery int
	// Cluster, when set, makes this server one node of a spatially
	// partitioned cluster (internal/cluster): updates are gated on zone
	// ownership, OpZoneMap/OpHandoff are served, and every
	// committed mutation triggers a handoff scan.  Nil (the default) keeps
	// single-node behavior exactly as before.
	Cluster ClusterHooks
	// PeerMaxPayload raises the decoder's per-frame payload bound for
	// sessions that identify as cluster peers (HelloReq.Peer), so bulk
	// handoff frames can exceed the client-facing bound
	// (wire.DefaultMaxPayload) without loosening the hostile-input limit
	// for ordinary connections.  0 keeps peers at wire.DefaultMaxPayload.
	PeerMaxPayload int
}

// ClusterHooks is how a cluster node (internal/cluster) plugs into the
// server's request path.  All methods are called from session goroutines
// and must be safe for concurrent use.  The interface lives here, and the
// implementation in internal/cluster, so server does not import cluster.
// A node only ever applies the updates it owns: a batch with any foreign
// op is refused with wire.CodeWrongZone naming the owners (PROTOCOL.md
// §7.2), and the client re-sends it there; nodes talk to each other only
// to hand objects off.
type ClusterHooks interface {
	// RouteOp classifies one update op: owned reports whether this node
	// may apply it (it owns the object's zone, the class is replicated, or
	// the op is positionless).  When owned is false, addr is the owning
	// node's address ("" when unknown).  frozen reports an object mid-
	// handoff: the caller must reject with a retryable error rather than
	// apply it or name an owner.
	RouteOp(op *wire.UpdateOp) (addr string, owned, frozen bool)
	// ZoneMap returns the cluster topology served to OpZoneMap requests.
	ZoneMap() *wire.ZoneMapResp
	// Handoff applies an incoming batch of object transfers (receiver
	// side), each fenced by its Version so duplicates acknowledge without
	// re-applying.  prov (non-nil on a durable node) stamps the applies
	// for crash recovery: object i is stamped with operation prov.Op+i.
	Handoff(req *wire.HandoffReq, prov *most.Prov) (*wire.HandoffResp, error)
	// AfterCommit runs on the session goroutine after a mutation commits:
	// touched lists the object IDs written by the batch (nil after a clock
	// advance, meaning scan everything).  The node checks each for zone
	// exits and hands off movers before the call returns, so a quiesced
	// cluster has no undelivered handoffs.
	AfterCommit(touched []string)
}

// WithCommitLock runs fn holding the durable commit lock shared, so a
// cluster node's out-of-band local mutations (deleting an object once its
// handoff is acknowledged) cannot interleave with a checkpoint's
// snapshot/WAL truncation.  On a non-durable server the lock is a
// formality and fn just runs.
func (srv *Server) WithCommitLock(fn func()) {
	srv.commitMu.RLock()
	defer srv.commitMu.RUnlock()
	fn()
}

// DB returns the server's live database — the current one, tracking any
// snapshot-load swap.  Cluster nodes read through this instead of caching
// the pointer NewDurable built.
func (srv *Server) DB() *most.Database { return srv.state().db }

func (c Config) normalized() Config {
	if c.MaxProtocol <= 0 || c.MaxProtocol > wire.MaxProtocolVersion {
		c.MaxProtocol = wire.MaxProtocolVersion
	}
	if c.OutQueue <= 0 {
		c.OutQueue = 256
	}
	if c.WriteBudget <= 0 {
		c.WriteBudget = 5 * time.Second
	}
	if c.Name == "" {
		c.Name = "mostserver"
	}
	return c
}

// state is the served database and engine; SnapshotLoad swaps it
// atomically.
type state struct {
	db  *most.Database
	eng *query.Engine
}

// Server serves a MOST database over TCP.
type Server struct {
	cfg Config
	st  atomic.Pointer[state]
	m   *metrics

	nextSub atomic.Uint64

	// admit is the admission-control semaphore (nil when MaxInflight <= 0).
	admit chan struct{}

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	dedupMu sync.Mutex
	dedup   map[string]*dedupCache

	// wires holds the wire state of each subscribed engine plan: every
	// subscription on a plan receives the same installs, so each install's
	// patch is converted to wire form once and shared by all pumps (see
	// planWire).
	wireMu sync.Mutex
	wires  map[wireKey]*planWire

	// Epoch fencing: the newest session generation per ClientID, so a
	// reconnecting client supersedes its zombie predecessor and a stale
	// predecessor's Hello is rejected (wire.CodeStaleEpoch).
	epochMu sync.Mutex
	epochs  map[string]*clientEpoch

	// Durability (zero on plain New servers, whose wal is nil; see
	// durable.go).  commitMu orders mutating requests (shared) against
	// checkpoints and WAL rebases (exclusive).
	wal             *most.WAL
	snapPath        string
	dedupPath       string
	checkpointEvery int
	mutSince        atomic.Uint64
	commitMu        sync.RWMutex

	partialMu sync.Mutex
	partial   map[string]map[uint64]int
	recovered map[string]struct{}
}

// New returns a server over db and eng.  The engine must be bound to db.
func New(db *most.Database, eng *query.Engine, cfg Config) *Server {
	cfg = cfg.normalized()
	srv := &Server{
		cfg:       cfg,
		m:         newMetrics(cfg.Reg),
		sessions:  map[*session]struct{}{},
		dedup:     map[string]*dedupCache{},
		wires:     map[wireKey]*planWire{},
		epochs:    map[string]*clientEpoch{},
		partial:   map[string]map[uint64]int{},
		recovered: map[string]struct{}{},
	}
	if cfg.MaxInflight > 0 {
		srv.admit = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.Reg != nil {
		db.Instrument(cfg.Reg)
		eng.Instrument(cfg.Reg)
	}
	srv.st.Store(&state{db: db, eng: eng})
	return srv
}

// state returns the current database/engine pair.
func (srv *Server) state() *state { return srv.st.Load() }

// ListenAndServe listens on addr (e.g. ":7654", "127.0.0.1:0") and serves
// until Shutdown.  It returns once the listener is installed; accept-loop
// errors after Shutdown are swallowed.
func (srv *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if err := srv.register(ln); err != nil {
		return err
	}
	go srv.acceptLoop(ln)
	return nil
}

// Addr returns the listener address (nil before ListenAndServe/Serve).
func (srv *Server) Addr() net.Addr {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Serve accepts connections on ln until the listener fails or Shutdown
// closes it.
func (srv *Server) Serve(ln net.Listener) error {
	if err := srv.register(ln); err != nil {
		return err
	}
	return srv.acceptLoop(ln)
}

// register installs the listener so Addr and Shutdown see it, and marks the
// service ready: recovery (if any) finished before the listener existed.
func (srv *Server) register(ln net.Listener) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		ln.Close()
		return errors.New("server: already shut down")
	}
	srv.ln = ln
	srv.cfg.Health.Set(obs.StateReady)
	return nil
}

func (srv *Server) acceptLoop(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !srv.startSession(conn) {
			conn.Close()
			return nil
		}
	}
}

// startSession registers and launches a session; it refuses when the
// server is shutting down.
func (srv *Server) startSession(conn net.Conn) bool {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return false
	}
	s := newSession(srv, conn)
	srv.sessions[s] = struct{}{}
	srv.wg.Add(1)
	srv.mu.Unlock()
	srv.m.connectionsTotal.Inc()
	srv.m.connections.Add(1)
	go func() {
		defer srv.wg.Done()
		defer srv.m.connections.Add(-1)
		defer srv.dropSession(s)
		s.run()
	}()
	return true
}

func (srv *Server) dropSession(s *session) {
	// The client's epoch stays for fencing; the ended session must not.
	id := s.reqClientID()
	srv.epochMu.Lock()
	if ce := srv.epochs[id]; ce != nil && ce.sess == s {
		ce.sess = nil
	}
	srv.epochMu.Unlock()
	srv.mu.Lock()
	delete(srv.sessions, s)
	srv.mu.Unlock()
}

// Shutdown drains the server: it stops accepting, lets every session
// finish the request it is executing and flush queued responses, then
// closes the connections.  Sessions still busy when ctx expires are killed.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	ln := srv.ln
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	srv.cfg.Health.Set(obs.StateDraining)
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		srv.finishDurable(true)
		return nil
	case <-ctx.Done():
		srv.mu.Lock()
		for s := range srv.sessions {
			s.kill("server shutdown")
		}
		srv.mu.Unlock()
		<-done
		srv.finishDurable(false)
		return ctx.Err()
	}
}

// Close shuts the server down, giving sessions a short grace period to
// drain before they are killed.
func (srv *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// swapState installs a freshly loaded database, instruments it like the
// original, and tears down every live subscription (their engine is gone).
func (srv *Server) swapState(db *most.Database) {
	eng := query.NewEngine(db)
	if srv.cfg.Reg != nil {
		db.Instrument(srv.cfg.Reg)
		eng.Instrument(srv.cfg.Reg)
	}
	srv.st.Store(&state{db: db, eng: eng})
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range sessions {
		s.closeSubs("database replaced")
	}
}

// ---- idempotence cache ----

// dedupEntry is one executed (or executing) request.  done is closed once
// frame holds the response; a retry arriving mid-execution waits for it
// instead of re-applying the request.
type dedupEntry struct {
	done  chan struct{}
	frame wire.Frame
}

// dedupWindow is how many executed requests are remembered per client
// for idempotent retries.
const dedupWindow = 1024

// dedupCache remembers the last dedupWindow mutating requests of one
// client.
type dedupCache struct {
	mu      sync.Mutex
	entries map[uint64]*dedupEntry
	order   []uint64
}

// begin reserves request id.  It returns (entry, true) when the request
// was already seen — the caller waits on entry.done and replays
// entry.frame — or (entry, false) when the caller must execute the request
// and finish the entry.
func (c *dedupCache) begin(id uint64) (*dedupEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e, true
	}
	e := &dedupEntry{done: make(chan struct{})}
	c.entries[id] = e
	c.order = append(c.order, id)
	for len(c.order) > dedupWindow {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, evict)
	}
	return e, false
}

// finish publishes the response for a reserved entry.
func (e *dedupEntry) finish(f wire.Frame) {
	e.frame = f
	close(e.done)
}

// remove forgets a reservation, so a later retry executes afresh.  Used
// for requests that were reserved but never executed (deadline expired
// before the handler ran): caching their rejection would replay it to a
// retry arriving with a healthy budget.
func (c *dedupCache) remove(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, id)
	// The reservation is the newest occurrence of id: a retry re-reserves
	// it at the end of the window, and a stale copy left behind would
	// later evict the retry's entry.
	if i := slices.Index(c.order, id); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// dedupFor returns the cache for a client identity, creating it on first
// use.  The caches live for the server's lifetime so retries survive
// reconnects.
func (srv *Server) dedupFor(clientID string) *dedupCache {
	if clientID == "" {
		return nil
	}
	srv.dedupMu.Lock()
	defer srv.dedupMu.Unlock()
	c, ok := srv.dedup[clientID]
	if !ok {
		c = &dedupCache{entries: map[uint64]*dedupEntry{}}
		srv.dedup[clientID] = c
	}
	return c
}

// fenceEpoch applies epoch fencing for a Hello.  It returns resumed (the
// server recognizes this ClientID from an earlier session or from durable
// recovery), the superseded predecessor session to kill (nil if none), and
// ok=false when the Hello itself is the zombie: its epoch is lower than one
// already seen, so a newer session of the same client has taken over.
// Epoch 0 — every pre-resume client — opts out of fencing entirely.
func (srv *Server) fenceEpoch(clientID string, epoch uint64, s *session) (resumed bool, zombie *session, ok bool) {
	if clientID == "" || epoch == 0 {
		return false, nil, true
	}
	srv.epochMu.Lock()
	defer srv.epochMu.Unlock()
	ce := srv.epochs[clientID]
	switch {
	case ce == nil:
		srv.epochs[clientID] = &clientEpoch{epoch: epoch, sess: s}
		// A durable restart empties the epoch table, but recovery knows
		// which clients it rebuilt exactly-once state for.
		return srv.wasRecovered(clientID), nil, true
	case epoch < ce.epoch:
		return false, nil, false
	default:
		zombie = ce.sess
		ce.epoch, ce.sess = epoch, s
		return true, zombie, true
	}
}

// ---- metrics ----

// metrics holds the pre-resolved (possibly nil) obs instruments.
type metrics struct {
	reg                *obs.Registry
	connections        *obs.Gauge
	connectionsTotal   *obs.Counter
	subscriptions      *obs.Gauge
	inflight           *obs.Gauge
	framesIn           *obs.Counter
	framesOut          *obs.Counter
	errors             *obs.Counter
	slowConsumers      *obs.Counter
	protocolViolations *obs.Counter
	notifies           *obs.Counter
	notifyCoalesced    *obs.Counter
	notifyDelta        *obs.Counter
	notifyReset        *obs.Counter
	notifyRows         *obs.Counter
	convHits           *obs.Counter
	convMisses         *obs.Counter
	dedupHits          *obs.Counter
	shedRequests       *obs.Counter
	checkpoints        *obs.Counter
	checkpointErrors   *obs.Counter
	checkpointNs       *obs.Histogram
	recoveryMs         *obs.Gauge
	applyNs            *obs.Histogram

	opMu sync.Mutex
	opNs map[wire.Opcode]*obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:                reg,
		connections:        reg.Gauge("server.connections"),
		connectionsTotal:   reg.Counter("server.connections_total"),
		subscriptions:      reg.Gauge("server.subscriptions"),
		inflight:           reg.Gauge("server.inflight_requests"),
		framesIn:           reg.Counter("server.frames_in"),
		framesOut:          reg.Counter("server.frames_out"),
		errors:             reg.Counter("server.request_errors"),
		slowConsumers:      reg.Counter("server.slow_consumer_disconnects"),
		protocolViolations: reg.Counter("server.protocol_violations"),
		notifies:           reg.Counter("server.notifies"),
		notifyCoalesced:    reg.Counter("server.notifies_coalesced"),
		notifyDelta:        reg.Counter("server.notify_delta"),
		notifyReset:        reg.Counter("server.notify_reset"),
		notifyRows:         reg.Counter("server.notify_rows"),
		convHits:           reg.Counter("server.conv_hits"),
		convMisses:         reg.Counter("server.conv_misses"),
		dedupHits:          reg.Counter("server.dedup_hits"),
		shedRequests:       reg.Counter("server.shed_requests"),
		checkpoints:        reg.Counter("server.checkpoints"),
		checkpointErrors:   reg.Counter("server.checkpoint_errors"),
		checkpointNs:       reg.Histogram("server.checkpoint_ns"),
		recoveryMs:         reg.Gauge("server.recovery_ms"),
		applyNs:            reg.Histogram("server.apply_ns"),
		opNs:               map[wire.Opcode]*obs.Histogram{},
	}
}

// opHist returns the latency histogram for one request opcode.
func (m *metrics) opHist(op wire.Opcode) *obs.Histogram {
	if m.reg == nil {
		return nil
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	h, ok := m.opNs[op]
	if !ok {
		h = m.reg.Histogram(fmt.Sprintf("server.op_ns.%s", op))
		m.opNs[op] = h
	}
	return h
}
