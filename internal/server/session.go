package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

var (
	errSessionClosed = errors.New("server: session closed")
	errSlowConsumer  = errors.New("server: slow consumer")
)

// session is one connection's server-side state: a reader goroutine
// dispatching pipelined requests in order, a writer goroutine owning the
// socket, and one pump goroutine per live subscription.
//
// The ingest hot path is allocation-free in steady state: the decoder
// reuses one payload buffer per session (Decoder.NextReuse), update
// batches decode into a reused request struct with object IDs resolved
// through a per-session string interner, responses encode into pooled
// buffers (wire.EncodePooled) that the writer recycles after the socket
// write, and the writer serializes frames into one reusable buffer
// instead of allocating per frame.
type session struct {
	srv  *Server
	conn net.Conn

	// proto is the session's negotiated protocol version:
	// MinProtocolVersion until a Hello negotiates higher.  Read by the
	// reader, writer, and pumps.
	proto atomic.Uint32

	out        chan wire.Frame // all outbound frames
	dead       chan struct{}   // closed by kill: stop everything now
	flushc     chan struct{}   // closed by the reader on exit: flush and close
	writerDone chan struct{}

	killOnce sync.Once
	draining sync.Once

	// Reader-goroutine-only decode scratch (no locking needed): the reused
	// update-batch request and the session's string interner.
	reqUB  wire.UpdateBatchReq
	intern wire.Interner

	// Reader-goroutine-only per-request state: when the request entered
	// handling (deadline accounting), how many leading batch ops a retry of
	// a crashed request must skip (recovery roll-forward), and the error
	// code of the response being produced ("" for plain errors/successes;
	// any typed code means the request was refused without executing, so
	// its dedup reservation must be forgotten rather than replayed).
	reqStart    time.Time
	rollForward int
	lastCode    string

	// Reader-goroutine-only cluster state: peer marks a session that
	// identified as another node (HelloReq.Peer — gets the raised decoder
	// bound); touched/scanAll accumulate what the request mutated so the
	// post-dispatch handoff scan knows where to look.
	peer    bool
	touched []string
	scanAll bool

	// Reader-goroutine-only: set by a SUBSCRIBE to start the new
	// subscription's pump once its result is enqueued.  The out-queue is
	// FIFO, so the result precedes every NOTIFY of the subscription
	// (PROTOCOL.md §6).
	startPump func()

	// Writer-goroutine-only frame serialization buffer.
	wbuf []byte

	mu         sync.Mutex
	clientID   string
	dedup      *dedupCache
	subs       map[uint64]*serverSub
	subsClosed bool
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{
		srv:        srv,
		conn:       conn,
		out:        make(chan wire.Frame, srv.cfg.OutQueue),
		dead:       make(chan struct{}),
		flushc:     make(chan struct{}),
		writerDone: make(chan struct{}),
		subs:       map[uint64]*serverSub{},
		intern:     wire.Interner{},
	}
	s.proto.Store(wire.MinProtocolVersion)
	return s
}

// run is the session main loop; it returns when the connection is done.
//
// The decoder is pinned to the session's protocol version at every frame:
// before negotiation only MinProtocolVersion frames are legal (Hello is
// always spoken at it), afterwards only the negotiated version — a frame carrying
// any other version is a protocol violation that disconnects the session
// after a best-effort error push.
func (s *session) run() {
	go s.writeLoop()
	dec := wire.NewDecoder(bufio.NewReaderSize(s.conn, 64<<10), wire.DefaultMaxPayload)
	peerRaised := false
	for {
		if s.peer && !peerRaised && s.srv.cfg.PeerMaxPayload > 0 {
			// The session identified as a cluster peer in its Hello: raise
			// the frame bound so bulk handoff transfers fit.  Ordinary
			// connections keep the hostile-input cap.
			dec.SetMax(s.srv.cfg.PeerMaxPayload)
			peerRaised = true
		}
		dec.SetVersion(uint8(s.proto.Load()))
		f, err := dec.NextReuse()
		if err != nil {
			// EOF, the drain deadline, a kill, or a protocol violation: in
			// every case the session winds down.  Protocol violations get a
			// best-effort error frame first.
			if errors.Is(err, wire.ErrBadFrame) || errors.Is(err, wire.ErrFrameTooLarge) {
				s.srv.m.protocolViolations.Inc()
				s.tryEnqueue(s.enc(wire.OpError, 0, &wire.ErrorResp{Msg: err.Error()}))
			}
			break
		}
		s.srv.m.framesIn.Inc()
		s.handle(f)
	}
	s.closeSubs("")
	close(s.flushc)
	<-s.writerDone
}

// beginDrain stops the reader after its current request: subsequent reads
// fail immediately, the reader exits, and the writer flushes the queue
// before closing.  Responses already computed still reach the client.
func (s *session) beginDrain() {
	s.draining.Do(func() {
		s.conn.SetReadDeadline(time.Now())
	})
}

// kill tears the session down without flushing.
func (s *session) kill(reason string) {
	s.killOnce.Do(func() {
		_ = reason
		close(s.dead)
		s.conn.Close()
	})
}

// slowConsumer records and disconnects a session that cannot keep up.
func (s *session) slowConsumer() {
	s.srv.m.slowConsumers.Inc()
	s.kill("slow consumer")
}

// writeLoop owns conn writes.  Every write carries the WriteBudget
// deadline, so a stalled peer cannot hold the goroutine hostage.
func (s *session) writeLoop() {
	defer close(s.writerDone)
	for {
		select {
		case f := <-s.out:
			if !s.write(f) {
				return
			}
		case <-s.dead:
			return
		case <-s.flushc:
			// Reader exited: flush what is queued, then close.
			for {
				select {
				case f := <-s.out:
					if !s.write(f) {
						return
					}
				case <-s.dead:
					return
				default:
					s.conn.Close()
					return
				}
			}
		}
	}
}

// write serializes one frame into the session's reusable buffer, writes it
// in one syscall, and recycles pool-backed payloads.
func (s *session) write(f wire.Frame) bool {
	buf, err := wire.AppendFrame(s.wbuf[:0], f)
	if err != nil {
		// Frames are produced by our own encoders; an unframeable one is a bug.
		panic(err)
	}
	s.wbuf = buf[:0]
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteBudget))
	_, werr := s.conn.Write(buf)
	wire.Recycle(f)
	if werr != nil {
		var ne net.Error
		if errors.As(werr, &ne) && ne.Timeout() {
			s.slowConsumer()
		} else {
			s.kill(werr.Error())
		}
		return false
	}
	s.srv.m.framesOut.Inc()
	return true
}

// enqueue queues an outbound frame, waiting at most WriteBudget; a full
// queue past the budget marks the session a slow consumer.
func (s *session) enqueue(f wire.Frame) error {
	select {
	case s.out <- f:
		return nil
	case <-s.dead:
		return errSessionClosed
	default:
	}
	t := time.NewTimer(s.srv.cfg.WriteBudget)
	defer t.Stop()
	select {
	case s.out <- f:
		return nil
	case <-s.dead:
		return errSessionClosed
	case <-t.C:
		s.slowConsumer()
		return errSlowConsumer
	}
}

// tryEnqueue queues a frame only if there is room right now.
func (s *session) tryEnqueue(f wire.Frame) {
	select {
	case s.out <- f:
	default:
	}
}

// ---- request dispatch ----

// enc encodes a response or push payload at the session's negotiated
// protocol version, drawing v2 payload buffers from the encode pool (the
// writer recycles them after the socket write).
func (s *session) enc(op wire.Opcode, id uint64, payload any) wire.Frame {
	f, err := wire.EncodePooled(uint8(s.proto.Load()), op, id, payload)
	if err != nil {
		// Payloads are our own types; failure to marshal them is a bug.
		panic(err)
	}
	return f
}

func (s *session) errFrame(id uint64, err error) wire.Frame {
	return s.enc(wire.OpError, id, &wire.ErrorResp{Msg: err.Error()})
}

// handle executes one request and enqueues its response, recording the
// per-opcode latency and the in-flight gauge.  Admission control runs
// first: past MaxInflight the request is shed with a typed, retryable
// error before it touches the idempotence cache or the database — Hello
// and Ping always pass, so a client can still handshake under load.
func (s *session) handle(f wire.Frame) {
	m := s.srv.m
	if s.srv.admit != nil && f.Op != wire.OpHello && f.Op != wire.OpPing {
		select {
		case s.srv.admit <- struct{}{}:
			defer func() { <-s.srv.admit }()
		default:
			m.shedRequests.Inc()
			_ = s.enqueue(s.enc(wire.OpError, f.ID,
				&wire.ErrorResp{Msg: "server overloaded, retry later", Code: wire.CodeOverloaded}))
			return
		}
	}
	s.reqStart = time.Now()
	m.inflight.Add(1)
	t0 := m.reg.Start()
	s.touched = s.touched[:0]
	s.scanAll = false
	resp := s.dispatch(f)
	if hooks := s.srv.cfg.Cluster; hooks != nil && (s.scanAll || len(s.touched) > 0) {
		// Handoff scan: runs after the commit lock is released (no lock is
		// held across the peer network calls) but before the response is
		// enqueued, so when a caller's request returns, every zone exit it
		// caused has already been transferred — a quiesced cluster has no
		// handoffs in flight.
		if s.scanAll {
			hooks.AfterCommit(nil)
		} else {
			hooks.AfterCommit(s.touched)
		}
	}
	m.opHist(f.Op).Since(t0)
	m.inflight.Add(-1)
	if resp.Op == wire.OpError {
		m.errors.Inc()
	}
	_ = s.enqueue(resp)
	if start := s.startPump; start != nil {
		s.startPump = nil
		start()
	}
}

// deadlineExpired reports whether a request's per-attempt budget ran out
// before its handler could start real work (e.g. while blocked behind a
// checkpoint's commit lock).
func (s *session) deadlineExpired(ms int64) bool {
	return ms > 0 && time.Since(s.reqStart) > time.Duration(ms)*time.Millisecond
}

// deadlineFrame is the typed refusal for an expired budget.
func (s *session) deadlineFrame(id uint64) wire.Frame {
	s.lastCode = wire.CodeDeadlineExceeded
	return s.enc(wire.OpError, id,
		&wire.ErrorResp{Msg: "deadline expired before execution", Code: wire.CodeDeadlineExceeded})
}

// reqClientID is the identity mutations execute under: the session's
// Hello-bound client.
func (s *session) reqClientID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clientID
}

// dispatch routes one request.  Mutating opcodes pass through the client's
// idempotence cache when a Hello established one, and execute under the
// commit lock (shared — exclusive for SnapshotLoad, which rebases a WAL):
// on a durable server the request's receipt note is appended under the
// same lock, so a checkpoint can never separate a request's WAL records
// from its receipt.  The cache and the WAL both store the response as
// executed; replay restamps its version.
func (s *session) dispatch(f wire.Frame) wire.Frame {
	switch f.Op {
	case wire.OpUpdateBatch, wire.OpAdvance, wire.OpSnapshotLoad, wire.OpHandoff:
	default:
		return s.execute(f)
	}
	clientID := s.reqClientID()
	cache := s.srv.dedupFor(clientID)
	var e *dedupEntry
	if cache != nil {
		var replay bool
		if e, replay = cache.begin(f.ID); replay {
			return s.replay(e)
		}
	}
	exclusive := f.Op == wire.OpSnapshotLoad
	if exclusive {
		s.srv.commitMu.Lock()
	} else {
		s.srv.commitMu.RLock()
	}
	if skip, ok := s.srv.takePartial(clientID, f.ID); ok {
		// This request crashed mid-flight in a previous server life and
		// operations 0..skip were already applied (recovered from the WAL's
		// provenance stamps): roll the retry forward past them.
		s.rollForward = skip + 1
	}
	s.lastCode = ""
	resp := s.execute(f)
	s.rollForward = 0
	var kept wire.Frame
	if e != nil {
		// The cache owns a detached copy: the enqueued original may be
		// pool-backed and is recycled by the writer after the socket write.
		kept = resp.Detach()
		if s.lastCode != "" {
			// Refused without executing (deadline expired, wrong zone,
			// mid-handoff): forget the reservation so a retry runs afresh
			// instead of replaying the refusal.
			cache.remove(f.ID)
		} else {
			s.srv.logReceipt(clientID, f.ID, kept)
		}
	}
	if exclusive {
		s.srv.commitMu.Unlock()
	} else {
		s.srv.commitMu.RUnlock()
	}
	if e != nil {
		e.finish(kept)
	}
	s.srv.afterMutation()
	return resp
}

// replay answers a retried request from its dedup entry, once the
// original has finished.  Responses to mutating requests encode
// byte-identically at every protocol version, so the cached payload serves
// a retry on any connection; only the frame's version byte follows the
// retrying session's negotiated version (PROTOCOL.md §5).
func (s *session) replay(e *dedupEntry) wire.Frame {
	s.srv.m.dedupHits.Inc()
	<-e.done
	f := e.frame
	f.Version = uint8(s.proto.Load())
	return f
}

func (s *session) execute(f wire.Frame) wire.Frame {
	switch f.Op {
	case wire.OpHello:
		return s.handleHello(f)
	case wire.OpPing:
		return s.enc(wire.OpResult, f.ID, nil)
	case wire.OpQuery:
		return s.handleQuery(f)
	case wire.OpUpdateBatch:
		return s.handleUpdateBatch(f)
	case wire.OpAdvance:
		return s.handleAdvance(f)
	case wire.OpObjects:
		return s.handleObjects(f)
	case wire.OpSnapshotSave:
		return s.handleSnapshotSave(f)
	case wire.OpSnapshotLoad:
		return s.handleSnapshotLoad(f)
	case wire.OpSubscribe:
		return s.handleSubscribe(f)
	case wire.OpUnsubscribe:
		return s.handleUnsubscribe(f)
	case wire.OpZoneMap:
		return s.handleZoneMap(f)
	case wire.OpHandoff:
		return s.handleHandoff(f)
	default:
		return s.errFrame(f.ID, fmt.Errorf("server: %s is not a request opcode", f.Op))
	}
}

// handleHello binds the client identity and negotiates the session
// protocol version.  The response is always encoded at MinProtocolVersion
// — the client only switches versions after reading it — and the session's
// version changes just before the response is enqueued, so the next frame
// the reader decodes is already held to the negotiated version.
func (s *session) handleHello(f wire.Frame) wire.Frame {
	var req wire.HelloReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	resumed, zombie, ok := s.srv.fenceEpoch(req.ClientID, req.Epoch, s)
	if !ok {
		resp, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpError, f.ID, &wire.ErrorResp{
			Msg:  fmt.Sprintf("epoch %d superseded by a newer session of %q", req.Epoch, req.ClientID),
			Code: wire.CodeStaleEpoch,
		})
		if err != nil {
			panic(err)
		}
		return resp
	}
	if zombie != nil && zombie != s {
		// A newer epoch of the same client fences its predecessor: the old
		// connection (possibly a half-dead socket the client abandoned) is
		// killed so it cannot interleave stale writes.
		zombie.kill("superseded by newer epoch")
	}
	s.mu.Lock()
	s.clientID = req.ClientID
	s.dedup = s.srv.dedupFor(req.ClientID)
	s.mu.Unlock()
	s.peer = req.Peer
	v := wire.NegotiateVersion(req.MaxVersion, s.srv.cfg.MaxProtocol)
	resp, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpResult, f.ID,
		&wire.HelloResp{Server: s.srv.cfg.Name, Version: int(v), Resumed: resumed})
	if err != nil {
		panic(err)
	}
	s.proto.Store(uint32(v))
	return resp
}

func (s *session) handleQuery(f wire.Frame) wire.Frame {
	var req wire.QueryReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	if s.deadlineExpired(req.DeadlineMS) {
		return s.deadlineFrame(f.ID)
	}
	st := s.srv.state()
	opts := s.srv.cfg.BaseOptions
	if req.Horizon > 0 {
		opts.Horizon = req.Horizon
	}
	rows, err := st.eng.Query(req.Src, opts)
	if err != nil {
		return s.errFrame(f.ID, err)
	}
	evRows := make([][]eval.Val, len(rows))
	for i, r := range rows {
		evRows[i] = r
	}
	return s.enc(wire.OpResult, f.ID, &wire.QueryResp{Now: st.db.Now(), Rows: wire.FromRows(evRows)})
}

// handleUpdateBatch is the ingest hot path.  The request decodes into the
// session's reused struct (slice capacity and interned object IDs carry
// over between batches), is applied op by op, and the small fixed-size
// acknowledgement encodes into a pooled buffer — zero steady-state
// allocations end to end (TestIngestZeroAlloc).
func (s *session) handleUpdateBatch(f wire.Frame) wire.Frame {
	req := &s.reqUB
	// The decoder overwrites every field it reads, but an empty payload
	// reads none: start from an empty batch, not the previous one.
	req.Ops, req.DeadlineMS = req.Ops[:0], 0
	if err := wire.UnmarshalInterned(f, req, s.intern); err != nil {
		return s.errFrame(f.ID, err)
	}
	if s.deadlineExpired(req.DeadlineMS) {
		return s.deadlineFrame(f.ID)
	}
	st := s.srv.state()
	hooks := s.srv.cfg.Cluster
	if hooks != nil {
		if rf, done := s.gateBatch(f, req, hooks); done {
			return rf
		}
	}
	// On a durable server with an identified client, each op is stamped
	// with provenance so a crash mid-batch is recoverable exactly-once; the
	// plain path stays allocation-free.  skip > 0 replays a recovered
	// partial batch: the first skip ops are already in the database.
	durable := s.srv.wal != nil
	clientID := s.reqClientID()
	skip := s.rollForward
	t0 := s.srv.m.reg.Start()
	applied := 0
	var failure error
	// The batch commits as one unit: no query sees part of it.
	st.db.Batch(func(tx *most.Tx) error {
		for i := range req.Ops {
			if i < skip {
				applied++
				continue
			}
			var p *most.Prov
			if durable && clientID != "" {
				p = &most.Prov{Client: clientID, Req: f.ID, Op: i}
			}
			if err := applyOp(st, tx, &req.Ops[i], p); err != nil {
				failure = fmt.Errorf("op %d (%s %s): %w", applied, req.Ops[i].Op, req.Ops[i].ID, err)
				return failure
			}
			if hooks != nil && req.Ops[i].ID != "" {
				s.touched = append(s.touched, req.Ops[i].ID)
			}
			applied++
		}
		return nil
	})
	s.srv.m.applyNs.Since(t0)
	if failure != nil {
		return s.errFrame(f.ID, failure)
	}
	resp := wire.UpdateBatchResp{Applied: applied, Now: st.db.Now(), Version: st.db.Version()}
	return s.enc(wire.OpResult, f.ID, &resp)
}

// applyOp applies one explicit update of a batch.  Continuous-query
// maintenance runs synchronously when the batch commits (the engine
// subscribes to updates), so when the batch response goes out every
// registered query already reflects it.
func applyOp(st *state, tx *most.Tx, op *wire.UpdateOp, p *most.Prov) error {
	switch op.Op {
	case wire.OpSetMotion:
		return tx.SetMotion(most.ObjectID(op.ID), geom.Vector{X: op.VX, Y: op.VY}, p)
	case wire.OpSetStatic:
		if op.Value == nil {
			return errors.New("set_static without value")
		}
		v, err := mostValue(*op.Value)
		if err != nil {
			return err
		}
		return tx.SetStatic(most.ObjectID(op.ID), op.Attr, v, p)
	case wire.OpDelete:
		return tx.Delete(most.ObjectID(op.ID), p)
	case wire.OpInsert:
		o, err := most.DecodeObject(st.db, op.Object)
		if err != nil {
			return err
		}
		return tx.Insert(o, p)
	default:
		return fmt.Errorf("unknown update op %q", op.Op)
	}
}

func mostValue(v wire.Value) (most.Value, error) {
	ev := v.Val()
	switch ev.Kind {
	case eval.ValNum:
		return most.Float(ev.Num), nil
	case eval.ValStr:
		return most.Str(ev.Str), nil
	case eval.ValBool:
		return most.Bool(ev.Bool), nil
	case eval.ValNull:
		return most.Null(), nil
	default:
		return most.Value{}, fmt.Errorf("value kind %d has no static-attribute form", ev.Kind)
	}
}

func (s *session) handleAdvance(f wire.Frame) wire.Frame {
	var req wire.AdvanceReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	if req.D < 0 {
		return s.errFrame(f.ID, errors.New("the clock cannot run backwards"))
	}
	if s.rollForward > 0 {
		// A recovered partial advance already moved the clock before the
		// crash; acknowledge with the current tick instead of advancing
		// twice.
		return s.enc(wire.OpResult, f.ID, &wire.AdvanceResp{Now: s.srv.state().db.Now()})
	}
	var p *most.Prov
	if s.srv.wal != nil {
		if clientID := s.reqClientID(); clientID != "" {
			p = &most.Prov{Client: clientID, Req: f.ID}
		}
	}
	now := s.srv.state().db.AdvanceProv(req.D, p)
	if s.srv.cfg.Cluster != nil && req.D == 0 {
		// A zero-tick advance is the cluster's rebalance barrier: the router
		// sends one to every node once all clocks agree, and only then does
		// the full handoff scan run.  Scanning during a real advance would
		// evaluate zone ownership while nodes sit at different ticks — the
		// ownership function is not yet well defined and eager transfers can
		// ping-pong between neighbors until the clocks catch up.
		s.scanAll = true
	}
	return s.enc(wire.OpResult, f.ID, &wire.AdvanceResp{Now: now})
}

func (s *session) handleObjects(f wire.Frame) wire.Frame {
	var req wire.ObjectsReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	snap := s.srv.state().db.Snapshot()
	now := snap.Now()
	objs := snap.Objects(req.Class)
	resp := wire.ObjectsResp{Now: now, Objects: make([]wire.ObjectInfo, 0, len(objs))}
	for _, o := range objs {
		info := wire.ObjectInfo{ID: string(o.ID()), Class: o.Class().Name()}
		if p, err := o.PositionAt(now); err == nil {
			info.HasPos, info.X, info.Y = true, p.X, p.Y
		}
		resp.Objects = append(resp.Objects, info)
	}
	return s.enc(wire.OpResult, f.ID, &resp)
}

func (s *session) handleSnapshotSave(f wire.Frame) wire.Frame {
	data, err := s.srv.state().db.SnapshotJSON()
	if err != nil {
		return s.errFrame(f.ID, err)
	}
	return s.enc(wire.OpResult, f.ID, &wire.SnapshotResp{Data: data})
}

func (s *session) handleSnapshotLoad(f wire.Frame) wire.Frame {
	var req wire.SnapshotLoadReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	db, err := most.LoadSnapshotJSON(req.Data)
	if err != nil {
		return s.errFrame(f.ID, err)
	}
	if s.srv.wal != nil {
		// Wholesale replacement on a durable server rebases the WAL onto
		// the new database (a "reset" record plus a fresh base image), so
		// the log alone reconstructs the post-replacement state even over a
		// stale checkpoint snapshot.  dispatch holds the commit lock
		// exclusively here, so no concurrent commit can interleave with the
		// rebase.
		old := s.srv.state().db
		w := old.DetachWAL()
		if err := db.RebaseWAL(w); err != nil {
			// Keep serving (and logging) the state we still have.
			old.AttachWALNoBase(w)
			return s.errFrame(f.ID, err)
		}
	}
	s.srv.swapState(db)
	return s.enc(wire.OpResult, f.ID, &wire.SnapshotLoadResp{Now: db.Now(), Objects: db.Count()})
}

// ---- cluster ----

// gateBatch enforces zone ownership on a cluster node before any op is
// applied (rejections are therefore always safe to retry elsewhere).  It
// returns (refusal, true) when any op is not this node's to apply, and
// (_, false) when every op is.  A batch wholly owned by one other node is
// refused naming that owner in Addr; any other batch with a foreign op is
// refused naming each op's owner in Redirects.  The node never executes
// another node's ops: the client re-sends them to the owner.
func (s *session) gateBatch(f wire.Frame, req *wire.UpdateBatchReq, hooks ClusterHooks) (wire.Frame, bool) {
	foreignAddr := ""
	foreign := 0
	for i := range req.Ops {
		addr, owned, frozen := hooks.RouteOp(&req.Ops[i])
		if frozen {
			// Mid-handoff: ownership is in flight.  Refuse with the one
			// retryable code — by the retry the transfer has resolved and
			// the op either applies here or redirects to the new owner.
			s.lastCode = wire.CodeOverloaded
			return s.enc(wire.OpError, f.ID, &wire.ErrorResp{
				Msg:  fmt.Sprintf("object %s is mid-handoff, retry", req.Ops[i].ID),
				Code: wire.CodeOverloaded,
			}), true
		}
		if owned {
			continue
		}
		foreign++
		if foreign == 1 {
			foreignAddr = addr
		} else if addr != foreignAddr {
			foreignAddr = "" // mixed destinations: cannot answer with one redirect
		}
	}
	if foreign == 0 {
		return wire.Frame{}, false
	}
	s.lastCode = wire.CodeWrongZone
	var redirects []string
	if foreign < len(req.Ops) || foreignAddr == "" {
		// Mixed owned/foreign batch (or foreign ops spread over several
		// owners): a single redirect address would misroute part of the
		// batch.  Instead answer with per-op owners so the router can
		// regroup the whole batch in one step; Addr stays empty.
		foreignAddr = ""
		redirects = make([]string, len(req.Ops))
		for i := range req.Ops {
			if addr, owned, _ := hooks.RouteOp(&req.Ops[i]); !owned {
				redirects[i] = addr
			}
		}
	}
	return s.enc(wire.OpError, f.ID, &wire.ErrorResp{
		Msg:       "update addressed to a zone this node does not own",
		Code:      wire.CodeWrongZone,
		Addr:      foreignAddr,
		Redirects: redirects,
	}), true
}

func (s *session) handleZoneMap(f wire.Frame) wire.Frame {
	hooks := s.srv.cfg.Cluster
	if hooks == nil {
		return s.errFrame(f.ID, errors.New("server: not a cluster node"))
	}
	return s.enc(wire.OpResult, f.ID, hooks.ZoneMap())
}

// handleHandoff applies an incoming batch of object transfers.  It sits
// in the mutating dispatch set, so on a durable node the response is
// receipted in the WAL: a sender retrying after the receiver crashed
// replays the receipt instead of re-applying (exactly-once across crash-
// during-handoff), a crash mid-batch rolls the retry forward past the
// objects already applied (each apply is stamped with its index), and the
// version fences inside the hook cover retries that arrive under a fresh
// identity.
func (s *session) handleHandoff(f wire.Frame) wire.Frame {
	hooks := s.srv.cfg.Cluster
	if hooks == nil {
		return s.errFrame(f.ID, errors.New("server: not a cluster node"))
	}
	var req wire.HandoffReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	// Objects before skip committed before a crash (recovered from WAL
	// provenance); only the acknowledgement was lost.  Re-ack them.
	skip := s.rollForward
	if skip > len(req.Objects) {
		skip = len(req.Objects)
	}
	rest := wire.HandoffReq{From: req.From, Objects: req.Objects[skip:]}
	var p *most.Prov
	if s.srv.wal != nil {
		if id := s.reqClientID(); id != "" {
			p = &most.Prov{Client: id, Req: f.ID, Op: skip}
		}
	}
	resp := &wire.HandoffResp{Now: s.srv.state().db.Now()}
	if len(rest.Objects) > 0 {
		var err error
		if resp, err = hooks.Handoff(&rest, p); err != nil {
			return s.errFrame(f.ID, err)
		}
		for i, ok := range resp.Accepted {
			if ok {
				// An arrival might itself sit outside this node's zones (a
				// stale copy bounced back after a crash): let the post-
				// dispatch scan re-check it and forward it onward if so.
				s.touched = append(s.touched, rest.Objects[i].ID)
			}
		}
	}
	if skip > 0 {
		acks := make([]bool, skip, len(req.Objects))
		for i := range acks {
			acks[i] = true
		}
		resp.Accepted = append(acks, resp.Accepted...)
	}
	return s.enc(wire.OpResult, f.ID, resp)
}

// ---- subscriptions ----

// serverSub is one continuous-query subscription: the engine's maintenance
// callback deposits the newest install in the mailbox (latest/gen/seq) and
// sets the dirty flag; the pump turns it into a NOTIFY and sends it.
// Rounds that arrive while the pump or connection is busy coalesce — the
// pump sends the newest install, as one delta composed from every install
// the client missed.
type serverSub struct {
	id uint64
	cq *query.Continuous

	mu     sync.Mutex
	latest *eval.Relation
	gen    uint64 // install number of latest (or of the initial answer)
	seq    uint64

	dirty chan struct{} // capacity 1
	stop  chan struct{}

	// wire is the plan-wide wire state shared with every other
	// subscription on the same engine plan: each install's patch is
	// converted to wire form once per plan, not once per subscriber.
	wire *planWire
	wkey wireKey
}

// onAnswer runs on the updater's commit path: record the patch, store and
// signal, never block.  Installs at or below the one the client received
// with its initial answer are already covered.
func (sub *serverSub) onAnswer(in query.Install) {
	sub.wire.record(in)
	sub.mu.Lock()
	if in.Gen <= sub.gen {
		sub.mu.Unlock()
		return
	}
	sub.latest, sub.gen = in.Rel, in.Gen
	sub.seq++
	sub.mu.Unlock()
	select {
	case sub.dirty <- struct{}{}:
	default:
	}
}

// pump streams mailbox contents to the session until the subscription or
// session ends.  held is the install the client holds: the initial answer
// first, then whatever the last NOTIFY brought it to.  On a version-3
// session each NOTIFY is the delta from held (base = the seq the client
// holds); when the plan's ring no longer reaches held, and on older
// sessions always, it is the full answer.
func (s *session) pump(sub *serverSub, held uint64) {
	m := s.srv.m
	deltas := s.proto.Load() >= wire.ProtocolV3
	var sent uint64
	for {
		select {
		case <-sub.stop:
			return
		case <-s.dead:
			return
		case <-sub.dirty:
			sub.mu.Lock()
			rel, gen, seq := sub.latest, sub.gen, sub.seq
			sub.mu.Unlock()
			if seq == sent || rel == nil {
				continue
			}
			m.notifies.Inc()
			if seq > sent+1 {
				m.notifyCoalesced.Add(int64(seq - sent - 1))
			}
			n := wire.Notify{SubID: sub.id, Seq: seq}
			if deltas {
				if gone, rows, ok := sub.wire.since(held, gen); ok {
					n.Delta, n.Base, n.Gone, n.Answer = true, sent, gone, rows
				}
			}
			if n.Delta {
				m.notifyDelta.Inc()
			} else {
				n.Answer = sub.wire.fullRows(rel, gen, m)
				m.notifyReset.Inc()
			}
			m.notifyRows.Add(int64(len(n.Answer) + len(n.Gone)))
			if err := s.enqueue(s.enc(wire.OpNotify, 0, &n)); err != nil {
				return
			}
			sent, held = seq, gen
		}
	}
}

func (s *session) handleSubscribe(f wire.Frame) wire.Frame {
	var req wire.SubscribeReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	st := s.srv.state()
	q, err := ftl.Parse(req.Src)
	if err != nil {
		return s.errFrame(f.ID, err)
	}
	opts := s.srv.cfg.BaseOptions
	if req.Horizon > 0 {
		opts.Horizon = req.Horizon
	}
	cq, err := st.eng.Continuous(q, opts)
	if err != nil {
		return s.errFrame(f.ID, err)
	}
	wk := wireKey{eng: st.eng, plan: cq.PlanID()}
	sub := &serverSub{
		id:    s.srv.nextSub.Add(1),
		cq:    cq,
		dirty: make(chan struct{}, 1),
		stop:  make(chan struct{}),
		wire:  s.srv.acquireWire(wk),
		wkey:  wk,
	}
	// The initial answer is read after the listener is live, and the
	// listener is held off (sub.mu) until the answer's install number is
	// known: every later install reaches the pump, every earlier one is
	// in the answer.
	sub.mu.Lock()
	err = cq.SubscribeInstalls(sub.onAnswer)
	var in query.Install
	if err == nil {
		in, err = cq.Installed()
	}
	sub.gen = in.Gen
	sub.mu.Unlock()
	if err != nil {
		cq.Cancel()
		s.srv.releaseWire(wk)
		return s.errFrame(f.ID, err)
	}
	s.mu.Lock()
	if s.subsClosed {
		s.mu.Unlock()
		cq.Cancel()
		s.srv.releaseWire(wk)
		return s.errFrame(f.ID, errSessionClosed)
	}
	s.subs[sub.id] = sub
	s.mu.Unlock()
	s.srv.m.subscriptions.Add(1)
	s.startPump = func() { go s.pump(sub, in.Gen) }
	return s.enc(wire.OpResult, f.ID, &wire.SubscribeResp{
		SubID: sub.id, Now: st.db.Now(), Answer: sub.wire.fullRows(in.Rel, in.Gen, s.srv.m),
	})
}

func (s *session) handleUnsubscribe(f wire.Frame) wire.Frame {
	var req wire.UnsubscribeReq
	if err := wire.Unmarshal(f, &req); err != nil {
		return s.errFrame(f.ID, err)
	}
	if !s.removeSub(req.SubID, "", false) {
		return s.errFrame(f.ID, fmt.Errorf("no subscription %d", req.SubID))
	}
	return s.enc(wire.OpResult, f.ID, nil)
}

// removeSub cancels one subscription; with push it also notifies the
// client via OpSubClosed.
func (s *session) removeSub(id uint64, reason string, push bool) bool {
	s.mu.Lock()
	sub, ok := s.subs[id]
	if ok {
		delete(s.subs, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	sub.cq.Cancel()
	s.srv.releaseWire(sub.wkey)
	close(sub.stop)
	s.srv.m.subscriptions.Add(-1)
	if push {
		s.tryEnqueue(s.enc(wire.OpSubClosed, 0, &wire.SubClosed{SubID: id, Reason: reason}))
	}
	return true
}

// closeSubs tears down every subscription; a non-empty reason is pushed to
// the client (used when the database is replaced under live sessions).
func (s *session) closeSubs(reason string) {
	s.mu.Lock()
	subs := make([]*serverSub, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = map[uint64]*serverSub{}
	if reason == "" {
		// Terminal teardown: refuse new subscriptions from here on.
		s.subsClosed = true
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.cq.Cancel()
		s.srv.releaseWire(sub.wkey)
		close(sub.stop)
		s.srv.m.subscriptions.Add(-1)
		if reason != "" {
			s.tryEnqueue(s.enc(wire.OpSubClosed, 0, &wire.SubClosed{SubID: sub.id, Reason: reason}))
		}
	}
}
