// Package client is the Go client for the MOST network service
// (internal/server): one TCP connection carrying pipelined requests and
// server-push continuous-query notifications, demultiplexed by request ID.
//
// # Reliability
//
// Every client carries a ClientID and stamps each request with a
// connection-independent request ID.  When a call fails on a transport
// error, the client redials and retransmits the same request ID; the
// server's idempotence cache recognizes IDs it has already executed and
// replays the stored response instead of applying the request again.
// At-least-once retransmission plus idempotent receipt is exactly-once
// application — the internal/faults reliable-delivery semantics (PR 2) on
// a real socket.  Server-reported errors (OpError) are not retried: the
// request was received and refused.
//
// # Protocol versions
//
// The client speaks protocol version 2 (the compact binary codec, see
// PROTOCOL.md) and version 3 (version 2 plus delta NOTIFYs).  Each
// connection's Hello handshake — always spoken at version 2 — advertises
// the client's maximum (WithProtocol, default wire.MaxProtocolVersion)
// and adopts the server's negotiated answer, so a v3 client downgrades
// gracefully against a server capped at v2.  Negotiation is
// per-connection: a reconnect renegotiates, and each attempt of a request
// carries that connection's version.
//
// # Self-healing
//
// A lost connection is an event the client absorbs, not an error it
// surfaces.  Calls retry on fresh connections under capped exponential
// backoff with seeded jitter; each reconnect attempt increments the
// client's session epoch, carried in the Hello, so the server can fence
// the zombie predecessor session and tell a resumed client from a new one.
// A server restart therefore looks, from the caller's side, like a brief
// latency spike.  Healing redials the address the client was dialed with;
// a server that moves to another address needs a new Dial.
//
// # Subscriptions
//
// Subscribe registers a continuous query and returns a Subscription
// mirroring the in-process query.Continuous handle: the server pushes the
// materialized Answer(CQ) after every maintenance round — on a version-3
// connection as a delta against the answer the handle holds, which the
// handle applies — the handle holds the newest answer, and presentation
// at a tick is a local lookup (wire.RowsAt) — no round trip per tick, the
// paper's continuous-query contract preserved across the network
// boundary.  A delta the handle cannot apply (its base is not the answer
// held) makes the handle re-register the query and reconcile, exactly as
// after a lost connection.  A subscription survives
// its connection: when the transport fails, the client parks it, heals the
// connection in the background, and transparently re-registers the query,
// reconciling the resumed answer against the last delivered one so the
// notification stream stays gap-free (the reconciliation answer carries
// anything missed while disconnected) and duplicate-free (an unchanged
// answer is suppressed).  Sequence numbers keep increasing across resumes.
// Only Client.Close — or a server-side refusal of the resumed query —
// terminates a subscription.
package client

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	mathrand "math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// Errors the client reports.
var (
	// ErrClosed marks calls on a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrConnLost marks a subscription ended by a transport failure.
	ErrConnLost = errors.New("client: connection lost")
	// ErrSubClosed marks a subscription ended by the server.
	ErrSubClosed = errors.New("client: subscription closed by server")
)

// errTransport wraps failures worth a retry on a fresh connection.
type errTransport struct{ err error }

func (e errTransport) Error() string { return e.err.Error() }
func (e errTransport) Unwrap() error { return e.err }

// ServerError is a request the server received and refused (an OpError
// response).  Code, when non-empty, is one of the wire.Code* constants;
// requests shed by admission control (wire.CodeOverloaded) are retried
// automatically within the retry budget, every other ServerError is final.
// Addr accompanies wire.CodeWrongZone: the address of the cluster node
// that owns the rejected object, for the caller to redirect to.  For a
// mixed batch Addr is empty and Redirects (when present) names the owner
// of each op instead, so the caller can regroup in one step.
type ServerError struct {
	Code      string
	Msg       string
	Addr      string
	Redirects []string
}

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Option configures a client.
type Option func(*Client)

// WithTimeout sets the per-call timeout (default 10s).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.callTimeout = d } }

// WithRetries sets how many times a call is retransmitted after transport
// errors before giving up (default 3).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithClientID fixes the client identity used for idempotent retries
// (default: random).
func WithClientID(id string) Option { return func(c *Client) { c.id = id } }

// WithDialer replaces the TCP dialer, e.g. with one wrapping connections
// in a fault injector (internal/faults.WrapConn).
func WithDialer(dial func(addr string) (net.Conn, error)) Option {
	return func(c *Client) { c.dial = dial }
}

// WithProtocol caps the protocol version the client offers in the Hello
// handshake (default wire.MaxProtocolVersion).  The negotiated version is
// min(v, server max); 2 forces full NOTIFYs.  Values below
// wire.MinProtocolVersion select it; values <= 0 or above
// wire.MaxProtocolVersion select the maximum.
func WithProtocol(v int) Option { return func(c *Client) { c.wantProto = v } }

// WithBackoff sets the retry/reconnect backoff schedule: delays double
// from base and are capped at max (defaults 50ms and 2s), with ±25%
// jitter applied so a fleet of clients does not reconnect in lockstep.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoff = base
		}
		if max > 0 {
			c.maxBackoff = max
		}
	}
}

// WithJitterSeed fixes the backoff jitter seed (default: derived from the
// ClientID), making retry schedules reproducible in tests and the chaos
// harness.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.jitterSeed, c.jitterSeeded = seed, true }
}

// WithPeer marks the connection as cluster-internal in its Hello: the
// server (when configured with a PeerMaxPayload) raises the frame bound so
// bulk handoff transfers fit.  Ordinary clients never set this.
func WithPeer() Option { return func(c *Client) { c.peer = true } }

// WithObs instruments the client: client.reconnects counts successful
// re-establishments of a previously lost connection,
// client.resume_gap_rows counts answer rows delivered by subscription
// resume reconciliation (changes that arrived while disconnected), and
// client.resyncs counts subscriptions re-registered because a delta
// NOTIFY did not apply to the answer they held.
func WithObs(reg *obs.Registry) Option { return func(c *Client) { c.reg = reg } }

// Client is a MOST network client.  Safe for concurrent use; concurrent
// calls pipeline on one connection.
type Client struct {
	addr         string
	id           string
	dial         func(addr string) (net.Conn, error)
	callTimeout  time.Duration
	retries      int
	backoff      time.Duration
	maxBackoff   time.Duration
	jitterSeed   int64
	jitterSeeded bool
	wantProto    int // highest protocol version offered in Hello
	peer         bool
	reg          *obs.Registry

	reconnects    *obs.Counter
	resumeGapRows *obs.Counter
	resyncs       *obs.Counter

	writeMu sync.Mutex // serializes frame writes to conn

	jmu    sync.Mutex
	jitter *mathrand.Rand

	mu      sync.Mutex
	conn    net.Conn
	proto   uint8  // negotiated protocol version of the current connection
	gen     uint64 // connection generation, to ignore stale readLoop failures
	epoch   uint64 // session epoch, incremented per connection attempt
	nextID  uint64
	nextKey uint64 // client-side subscription keys (stable across resumes)
	pending map[uint64]waiter
	subs    map[uint64]*Subscription // by current server subscription ID
	parked  map[uint64]*Subscription // by key: awaiting resume after a teardown
	resumed bool                     // last Hello's Resumed flag
	healing bool
	closed  bool
}

// waiter is one in-flight request: where its response goes and, when the
// call passed a resultHook, the hook the read loop runs on its result.
type waiter struct {
	ch   chan wire.Frame
	hook resultHook
}

// resultHook, passed as a call's out, runs on the read loop under c.mu
// with the request's OpResult frame, before the read loop reads the next
// frame.  Subscribe registers its handle this way: the server sends a
// SUBSCRIBE result before any NOTIFY of that subscription (PROTOCOL.md
// §6), so every NOTIFY finds the handle registered.
type resultHook func(wire.Frame)

// Dial connects to a mostserver at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:        addr,
		id:          randomID(),
		dial:        func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 10*time.Second) },
		callTimeout: 10 * time.Second,
		retries:     3,
		backoff:     50 * time.Millisecond,
		maxBackoff:  2 * time.Second,
		wantProto:   wire.MaxProtocolVersion,
		pending:     map[uint64]waiter{},
		subs:        map[uint64]*Subscription{},
		parked:      map[uint64]*Subscription{},
	}
	for _, o := range opts {
		o(c)
	}
	if c.wantProto <= 0 || c.wantProto > wire.MaxProtocolVersion {
		c.wantProto = wire.MaxProtocolVersion
	}
	c.wantProto = max(c.wantProto, wire.MinProtocolVersion)
	if c.maxBackoff < c.backoff {
		c.maxBackoff = c.backoff
	}
	if !c.jitterSeeded {
		c.jitterSeed = int64(crc32.ChecksumIEEE([]byte(c.id)))
	}
	c.jitter = mathrand.New(mathrand.NewSource(c.jitterSeed))
	c.reconnects = c.reg.Counter("client.reconnects")
	c.resumeGapRows = c.reg.Counter("client.resume_gap_rows")
	c.resyncs = c.reg.Counter("client.resyncs")
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "client-unidentified"
	}
	return hex.EncodeToString(b[:])
}

// connectLocked dials and performs the Hello handshake synchronously on
// the raw connection, publishing it (and starting the read loop) only once
// the server has acknowledged the client identity — so no request can
// reach the socket before the idempotence cache is bound.  Callers hold
// c.mu for the duration.
func (c *Client) connectLocked() error {
	if c.closed {
		return ErrClosed
	}
	conn, err := c.dial(c.addr)
	if err != nil {
		return errTransport{err}
	}
	id := c.reserveIDLocked()
	// Every connection attempt is a new session epoch: the server fences
	// any lingering predecessor session of this client, and rejects this
	// Hello (CodeStaleEpoch) if an even newer session has taken over.
	c.epoch++
	// Hello is always the lowest version, whatever we hope to negotiate,
	// so every server can read it.
	f, err := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpHello, id,
		&wire.HelloReq{ClientID: c.id, MaxVersion: c.wantProto, Epoch: c.epoch, Peer: c.peer})
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Now().Add(c.callTimeout))
	if err := wire.WriteFrame(conn, f); err != nil {
		conn.Close()
		return errTransport{err}
	}
	resp, err := wire.NewDecoder(conn, wire.DefaultMaxPayload).Next()
	if err != nil {
		conn.Close()
		return errTransport{err}
	}
	conn.SetDeadline(time.Time{})
	if resp.Op == wire.OpError {
		conn.Close()
		var e wire.ErrorResp
		_ = wire.Unmarshal(resp, &e)
		return fmt.Errorf("client: hello rejected: %s", e.Msg)
	}

	var hello wire.HelloResp
	if err := wire.Unmarshal(resp, &hello); err != nil {
		conn.Close()
		return err
	}
	if hello.Version < wire.MinProtocolVersion || hello.Version > c.wantProto {
		conn.Close()
		return fmt.Errorf("client: server negotiated protocol %d, offered at most %d", hello.Version, c.wantProto)
	}
	if c.gen > 0 {
		c.reconnects.Inc()
	}
	c.conn = conn
	c.proto = uint8(hello.Version)
	c.resumed = hello.Resumed
	c.gen++
	go c.readLoop(conn, c.gen, c.proto)
	return nil
}

// Resumed reports whether the server recognized this client's identity at
// the current connection's Hello — its idempotence cache and epoch fence
// were already bound, from an earlier connection or from durable recovery.
func (c *Client) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Epoch returns the client's current session epoch.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// backoffDelay is the pause before retry/reconnect attempt (1-based):
// exponential from the base, capped at the configured maximum, with ±25%
// deterministic jitter so client fleets desynchronize without losing test
// reproducibility.  Overflow-safe at any attempt count.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.backoff
	for i := 1; i < attempt; i++ {
		if d >= c.maxBackoff/2 {
			d = c.maxBackoff
			break
		}
		d *= 2
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	c.jmu.Lock()
	j := time.Duration(c.jitter.Int63n(int64(d)/2 + 1))
	c.jmu.Unlock()
	return d - d/4 + j
}

func (c *Client) reserveIDLocked() uint64 {
	c.nextID++
	return c.nextID
}

func awaitFrame(ch <-chan wire.Frame, timeout time.Duration) (wire.Frame, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			return wire.Frame{}, errTransport{ErrConnLost}
		}
		return f, nil
	case <-t.C:
		return wire.Frame{}, fmt.Errorf("client: call timed out after %s", timeout)
	}
}

// writeFrame serializes one frame write under the write deadline.
func (c *Client) writeFrame(conn net.Conn, f wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(c.callTimeout))
	return wire.WriteFrame(conn, f)
}

// readLoop demultiplexes inbound frames for one connection generation.
// The decoder is pinned to the connection's negotiated protocol version:
// a frame at any other version is a protocol violation that tears the
// connection down.
func (c *Client) readLoop(conn net.Conn, gen uint64, proto uint8) {
	dec := wire.NewDecoder(conn, wire.DefaultMaxPayload)
	dec.SetVersion(proto)
	for {
		f, err := dec.Next()
		if err != nil {
			c.mu.Lock()
			if c.gen == gen {
				c.teardownConnLocked(conn, err)
			}
			c.mu.Unlock()
			return
		}
		switch f.Op {
		case wire.OpNotify:
			var n wire.Notify
			if wire.Unmarshal(f, &n) != nil {
				continue
			}
			c.mu.Lock()
			sub, ok := c.subs[n.SubID]
			c.mu.Unlock()
			if ok && !sub.deliver(n) {
				c.resync(sub)
			}
		case wire.OpSubClosed:
			var sc wire.SubClosed
			if wire.Unmarshal(f, &sc) != nil {
				continue
			}
			c.mu.Lock()
			sub, ok := c.subs[sc.SubID]
			delete(c.subs, sc.SubID)
			c.mu.Unlock()
			if ok {
				reason := sc.Reason
				if reason == "" {
					reason = "server closed subscription"
				}
				sub.fail(fmt.Errorf("%w: %s", ErrSubClosed, reason))
			}
		default:
			c.mu.Lock()
			// A frame read after this connection was torn down answers
			// nothing: its request's waiter is gone or belongs to a retry
			// on the next connection.
			w, ok := c.pending[f.ID]
			if ok = ok && c.gen == gen; ok {
				delete(c.pending, f.ID)
				if w.hook != nil && f.Op == wire.OpResult {
					w.hook(f)
				}
			}
			c.mu.Unlock()
			if ok {
				w.ch <- f
			}
		}
	}
}

// teardownConnLocked unwinds a broken connection: in-flight calls fail
// (their retry loop redials), and live subscriptions are parked for the
// background heal goroutine to re-register — they only die if the client
// itself is closed.  Callers hold c.mu.
func (c *Client) teardownConnLocked(conn net.Conn, cause error) {
	conn.Close()
	if c.conn == conn {
		c.conn = nil
	}
	for id, w := range c.pending {
		close(w.ch)
		delete(c.pending, id)
	}
	subs := c.subs
	c.subs = map[uint64]*Subscription{}
	if c.closed {
		for _, sub := range subs {
			go sub.fail(fmt.Errorf("%w: %v", ErrConnLost, cause))
		}
		return
	}
	for _, sub := range subs {
		c.parked[sub.key] = sub
	}
	c.startHealLocked()
}

// startHealLocked launches the single-flight heal goroutine when parked
// subscriptions need a connection.  Callers hold c.mu.
func (c *Client) startHealLocked() {
	if c.healing || c.closed || len(c.parked) == 0 {
		return
	}
	c.healing = true
	go c.heal()
}

// heal reconnects under backoff and re-registers every parked
// subscription.  It exits when nothing is parked or the client closes;
// a connection lost mid-heal parks the subscriptions again and the loop
// continues.
func (c *Client) heal() {
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		if c.closed || len(c.parked) == 0 {
			c.healing = false
			parked := c.drainParkedLocked()
			c.mu.Unlock()
			for _, sub := range parked {
				sub.fail(fmt.Errorf("%w: client closed while resuming", ErrConnLost))
			}
			return
		}
		if c.conn == nil {
			if err := c.connectLocked(); err != nil {
				c.mu.Unlock()
				time.Sleep(c.backoffDelay(attempt))
				continue
			}
		}
		parked := make([]*Subscription, 0, len(c.parked))
		for _, sub := range c.parked {
			parked = append(parked, sub)
		}
		c.mu.Unlock()

		stalled := false
		for _, sub := range parked {
			if !c.resubscribe(sub) {
				stalled = true
				break
			}
		}
		if stalled {
			time.Sleep(c.backoffDelay(attempt))
			continue
		}
		c.mu.Lock()
		done := len(c.parked) == 0
		if done {
			c.healing = false
		}
		c.mu.Unlock()
		if done {
			return
		}
	}
}

// drainParkedLocked empties the parked set (used when the client closes
// while subscriptions await resume).  Callers hold c.mu.
func (c *Client) drainParkedLocked() []*Subscription {
	parked := make([]*Subscription, 0, len(c.parked))
	for _, sub := range c.parked {
		parked = append(parked, sub)
	}
	c.parked = map[uint64]*Subscription{}
	return parked
}

// resubscribe re-registers one parked subscription on the healed
// connection and reconciles its answer stream.  It returns false when the
// attempt should be retried after backoff (transport failure), true when
// the subscription was resumed, permanently rejected, or withdrawn.
func (c *Client) resubscribe(sub *Subscription) bool {
	var (
		resp    wire.SubscribeResp
		decErr  error
		resumed bool
	)
	err := c.call(wire.OpSubscribe, &wire.SubscribeReq{Src: sub.src, Horizon: sub.horizon}, resultHook(func(f wire.Frame) {
		if decErr = wire.Unmarshal(f, &resp); decErr != nil {
			return
		}
		if _, resumed = c.parked[sub.key]; !resumed {
			return // closed while the registration was in flight
		}
		delete(c.parked, sub.key)
		sub.subID = resp.SubID
		if rows, changed := sub.resumeReconcile(resp.Answer); changed {
			c.resumeGapRows.Add(int64(rows))
		}
		c.subs[resp.SubID] = sub
	}))
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			// The server evaluated and refused the query itself: resuming
			// can never succeed, so the subscription ends.
			c.mu.Lock()
			delete(c.parked, sub.key)
			c.mu.Unlock()
			sub.fail(fmt.Errorf("%w: resume rejected: %v", ErrSubClosed, err))
			return true
		}
		return false
	}
	if decErr != nil {
		return false
	}
	if !resumed {
		_ = c.call(wire.OpUnsubscribe, &wire.UnsubscribeReq{SubID: resp.SubID}, nil)
	}
	return true
}

// resync re-registers a live subscription whose delta stream broke (a
// NOTIFY's base is not the answer it holds): it is parked, the heal loop
// re-subscribes and reconciles it exactly as after a lost connection, and
// the broken server-side registration is withdrawn.
func (c *Client) resync(sub *Subscription) {
	c.mu.Lock()
	if c.closed || c.subs[sub.subID] != sub {
		c.mu.Unlock()
		return
	}
	old := sub.subID
	delete(c.subs, old)
	c.parked[sub.key] = sub
	c.startHealLocked()
	c.mu.Unlock()
	c.resyncs.Inc()
	go c.call(wire.OpUnsubscribe, &wire.UnsubscribeReq{SubID: old}, nil)
}

// call executes one request, retransmitting on transport errors under the
// same request ID so the server's idempotence cache can suppress double
// application.  The request is encoded once: requests encode
// byte-identically at every protocol version, so an attempt on a fresh
// connection with another negotiated version only restamps the frame's
// version byte.  A successful response is decoded into out, or handed to
// out when it is a resultHook.
func (c *Client) call(op wire.Opcode, payload, out any) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	id := c.reserveIDLocked()
	c.mu.Unlock()
	req, err := wire.EncodeFrame(wire.MinProtocolVersion, op, id, payload)
	if err != nil {
		return err
	}

	hook, _ := out.(resultHook)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoffDelay(attempt))
		}
		resp, err := c.roundTrip(req, hook)
		if err == nil {
			if resp.Op == wire.OpError {
				var e wire.ErrorResp
				_ = wire.Unmarshal(resp, &e)
				serr := &ServerError{Code: e.Code, Msg: e.Msg, Addr: e.Addr, Redirects: e.Redirects}
				if e.Code == wire.CodeOverloaded {
					// Shed by admission control: transient by definition,
					// so retried under backoff like a transport failure.
					lastErr = serr
					continue
				}
				return serr
			}
			if out != nil && hook == nil {
				return wire.Unmarshal(resp, out)
			}
			return nil
		}
		lastErr = err
		var te errTransport
		if !errors.As(err, &te) {
			return err
		}
	}
	return fmt.Errorf("client: %s failed after %d attempts: %w", op, c.retries+1, lastErr)
}

// roundTrip sends one request at the current connection's negotiated
// protocol version (dialing if needed) and waits for its response.
func (c *Client) roundTrip(req wire.Frame, hook resultHook) (wire.Frame, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.Frame{}, ErrClosed
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return wire.Frame{}, err
		}
	}
	conn, id := c.conn, req.ID
	req.Version = c.proto
	ch := make(chan wire.Frame, 1)
	c.pending[id] = waiter{ch: ch, hook: hook}
	c.mu.Unlock()

	if err := c.writeFrame(conn, req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.teardownConnLocked(conn, err)
		c.mu.Unlock()
		return wire.Frame{}, errTransport{err}
	}
	f, err := awaitFrame(ch, c.callTimeout)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return wire.Frame{}, err
	}
	return f, nil
}

// Close tears the client down; in-flight calls fail and every
// subscription — live or parked awaiting resume — ends.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	if conn != nil {
		c.teardownConnLocked(conn, ErrClosed)
	}
	parked := c.drainParkedLocked()
	c.mu.Unlock()
	for _, sub := range parked {
		sub.fail(fmt.Errorf("%w: client closed", ErrConnLost))
	}
	return nil
}

// ---- typed calls ----

// Ping round-trips an empty frame.
func (c *Client) Ping() error { return c.call(wire.OpPing, nil, nil) }

// Protocol reports the negotiated protocol version of the current
// connection (0 when disconnected).
func (c *Client) Protocol() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0
	}
	return int(c.proto)
}

// Query evaluates src as an instantaneous query; horizon <= 0 uses the
// server default.  It returns the server's evaluation tick and the
// satisfied instantiations.
func (c *Client) Query(src string, horizon temporal.Tick) (temporal.Tick, [][]wire.Value, error) {
	var resp wire.QueryResp
	if err := c.call(wire.OpQuery, &wire.QueryReq{Src: src, Horizon: horizon, DeadlineMS: c.deadlineMS()}, &resp); err != nil {
		return 0, nil, err
	}
	return resp.Now, resp.Rows, nil
}

// UpdateBatch applies explicit updates in order, exactly once.
func (c *Client) UpdateBatch(ops []wire.UpdateOp) (wire.UpdateBatchResp, error) {
	var resp wire.UpdateBatchResp
	err := c.call(wire.OpUpdateBatch, &wire.UpdateBatchReq{Ops: ops, DeadlineMS: c.deadlineMS()}, &resp)
	return resp, err
}

// deadlineMS is the per-request deadline budget advertised to the server,
// derived from the call timeout: past it, the response cannot be received
// in time anyway, so the server may refuse instead of doing stale work.
func (c *Client) deadlineMS() int64 { return int64(c.callTimeout / time.Millisecond) }

// SetMotion updates one object's motion vector.
func (c *Client) SetMotion(id string, vx, vy float64) error {
	_, err := c.UpdateBatch([]wire.UpdateOp{{Op: wire.OpSetMotion, ID: id, VX: vx, VY: vy}})
	return err
}

// Advance moves the server clock forward by d ticks.
func (c *Client) Advance(d temporal.Tick) (temporal.Tick, error) {
	var resp wire.AdvanceResp
	err := c.call(wire.OpAdvance, &wire.AdvanceReq{D: d}, &resp)
	return resp.Now, err
}

// Objects lists objects with their positions at the server's current tick.
func (c *Client) Objects(class string) (wire.ObjectsResp, error) {
	var resp wire.ObjectsResp
	err := c.call(wire.OpObjects, &wire.ObjectsReq{Class: class}, &resp)
	return resp, err
}

// SnapshotSave serializes the server's database state.
func (c *Client) SnapshotSave() ([]byte, error) {
	var resp wire.SnapshotResp
	if err := c.call(wire.OpSnapshotSave, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// SnapshotLoad replaces the server's database.  Every live subscription on
// the server (any client's) ends with a SubClosed push.
func (c *Client) SnapshotLoad(data []byte) (wire.SnapshotLoadResp, error) {
	var resp wire.SnapshotLoadResp
	err := c.call(wire.OpSnapshotLoad, &wire.SnapshotLoadReq{Data: data}, &resp)
	return resp, err
}

// ---- cluster calls ----

// ZoneMap fetches the cluster topology from a cluster node.
func (c *Client) ZoneMap() (wire.ZoneMapResp, error) {
	var resp wire.ZoneMapResp
	err := c.call(wire.OpZoneMap, nil, &resp)
	return resp, err
}

// Handoff transfers one object's motion record to this node (peer-to-peer
// use by cluster nodes).  Retries retransmit the same request ID, so the
// receiver's idempotence cache plus the version fence give exactly-once
// application however often the transfer is redelivered.
func (c *Client) Handoff(req *wire.HandoffReq) (wire.HandoffResp, error) {
	var resp wire.HandoffResp
	err := c.call(wire.OpHandoff, req, &resp)
	return resp, err
}

// ---- subscriptions ----

// Subscription is the client half of a server-maintained continuous
// query.  Its identity is the client-side key, not the server-side subID:
// the subID changes every time the subscription is transparently
// re-registered after a lost connection, while key, the answer stream,
// and its sequence numbers continue uninterrupted.
type Subscription struct {
	c       *Client
	key     uint64 // client-side identity, stable across resumes
	src     string
	horizon temporal.Tick
	subID   uint64 // current server-side subscription ID

	mu sync.Mutex
	// The held answer is answer (in canonical order) with the changes in
	// pend applied.  A delta NOTIFY only records its instantiations in
	// pend (key -> replacement rows, nil for gone), in O(|delta|); pend is
	// merged into a fresh answer slice once it outgrows a fraction of the
	// answer, or when Answer is called, so the merge's O(|answer|) cost is
	// spread over many changes.  Slices handed out by Answer are never
	// modified.
	answer []wire.AnswerRow
	pend   map[string][]wire.AnswerRow
	srvSeq uint64 // server sequence number of the held answer
	seq    uint64 // effective sequence, monotonic across resumes
	base   uint64 // offset added to server sequence numbers after a resume
	err    error

	updates chan struct{} // capacity-1 change signal
	done    chan struct{}
	once    sync.Once
}

// Subscribe registers src as a continuous query on the server.
func (c *Client) Subscribe(src string, horizon temporal.Tick) (*Subscription, error) {
	sub := &Subscription{
		c:       c,
		src:     src,
		horizon: horizon,
		updates: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	var decErr error
	err := c.call(wire.OpSubscribe, &wire.SubscribeReq{Src: src, Horizon: horizon}, resultHook(func(f wire.Frame) {
		var resp wire.SubscribeResp
		if decErr = wire.Unmarshal(f, &resp); decErr != nil {
			return
		}
		c.nextKey++
		sub.key, sub.subID, sub.answer = c.nextKey, resp.SubID, resp.Answer
		c.subs[resp.SubID] = sub
	}))
	if err == nil {
		err = decErr
	}
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// deliver installs a notification (monotonic in effective sequence: the
// server's per-registration sequence shifted by the resume base).  It
// reports false, installing nothing, for a delta whose base is not the
// held answer.
func (s *Subscription) deliver(n wire.Notify) bool {
	s.mu.Lock()
	eff := s.base + n.Seq
	if eff <= s.seq {
		s.mu.Unlock()
		return true
	}
	if n.Delta {
		if n.Base != s.srvSeq {
			s.mu.Unlock()
			return false
		}
		s.applyLocked(n.Gone, n.Answer)
	} else {
		s.answer, s.pend = n.Answer, nil
	}
	s.srvSeq, s.seq = n.Seq, eff
	s.mu.Unlock()
	select {
	case s.updates <- struct{}{}:
	default:
	}
	return true
}

// applyLocked records a delta against the held answer: the gone
// instantiations leave, and each instantiation of rows (consecutive rows
// with equal values) replaces that instantiation's rows.  Callers hold
// s.mu.
func (s *Subscription) applyLocked(gone [][]wire.Value, rows []wire.AnswerRow) {
	if len(gone) == 0 && len(rows) == 0 {
		return
	}
	if s.pend == nil {
		s.pend = map[string][]wire.AnswerRow{}
	}
	for _, vals := range gone {
		s.pend[wire.InstanceKey(vals)] = nil
	}
	for i := 0; i < len(rows); {
		j := wire.InstanceEnd(rows, i)
		s.pend[wire.InstanceKey(rows[i].Vals)] = rows[i:j:j]
		i = j
	}
	if len(s.pend) > len(s.answer)/8+32 {
		s.mergeLocked()
	}
}

// mergeLocked folds the pending changes into a fresh answer slice: one
// ordered merge of the answer's instantiations with the sorted pending
// keys.  Callers hold s.mu.
func (s *Subscription) mergeLocked() {
	if len(s.pend) == 0 {
		return
	}
	keys := make([]string, 0, len(s.pend))
	extra := 0
	for k, rows := range s.pend {
		keys = append(keys, k)
		extra += len(rows)
	}
	sort.Strings(keys)
	out := make([]wire.AnswerRow, 0, len(s.answer)+extra)
	var buf []byte
	i, k := 0, 0
	for i < len(s.answer) || k < len(keys) {
		if i == len(s.answer) {
			out = append(out, s.pend[keys[k]]...)
			k++
			continue
		}
		j := wire.InstanceEnd(s.answer, i)
		buf = wire.AppendInstanceKey(buf[:0], s.answer[i].Vals)
		switch {
		case k == len(keys) || string(buf) < keys[k]:
			out = append(out, s.answer[i:j]...)
			i = j
		case string(buf) > keys[k]:
			out = append(out, s.pend[keys[k]]...)
			k++
		default: // replaced (or gone: nil rows)
			out = append(out, s.pend[keys[k]]...)
			i, k = j, k+1
		}
	}
	s.answer, s.pend = out, nil
}

// resumeReconcile folds the answer returned by a re-registration into the
// stream.  An answer identical to the last delivered one is suppressed
// (nothing changed while disconnected — no duplicate notification); a
// different one is installed as the next step in the sequence, covering
// every change missed during the outage in a single gap-free transition.
// It reports the number of rows installed and whether anything changed.
func (s *Subscription) resumeReconcile(answer []wire.AnswerRow) (int, bool) {
	s.mu.Lock()
	// The fresh registration restarts the server-side sequence at zero;
	// its deltas are based on this initial answer.
	s.srvSeq = 0
	s.mergeLocked()
	if wire.CanonicalAnswers(answer) == wire.CanonicalAnswers(s.answer) {
		// Rebase so the registration's next notification lands at
		// s.seq+1.
		s.base = s.seq
		s.mu.Unlock()
		return 0, false
	}
	s.seq++
	s.base = s.seq
	s.answer = answer
	s.mu.Unlock()
	select {
	case s.updates <- struct{}{}:
	default:
	}
	return len(answer), true
}

// fail terminates the subscription.
func (s *Subscription) fail(err error) {
	s.once.Do(func() {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		close(s.done)
	})
}

// Answer returns the newest materialized answer, in canonical order (by
// instantiation, then interval), with its sequence number (0 = the
// subscription's initial answer).  The returned rows must not be modified.
func (s *Subscription) Answer() ([]wire.AnswerRow, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked()
	return s.answer, s.seq, s.err
}

// Current presents the rows satisfied at tick t from the newest answer —
// a local lookup, mirroring query.Continuous.Current.
func (s *Subscription) Current(t temporal.Tick) ([][]wire.Value, error) {
	answer, _, err := s.Answer()
	if err != nil {
		return nil, err
	}
	return wire.RowsAt(answer, t), nil
}

// Updates signals after new notifications install (coalescing: one signal
// may cover several).
func (s *Subscription) Updates() <-chan struct{} { return s.updates }

// Done closes when the subscription ends; Err then reports why.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err reports the terminal error, nil while live.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close cancels the subscription on the server and ends the handle.
func (s *Subscription) Close() error {
	s.c.mu.Lock()
	_, live := s.c.subs[s.subID]
	delete(s.c.subs, s.subID)
	delete(s.c.parked, s.key)
	s.c.mu.Unlock()
	s.fail(errors.New("client: subscription closed"))
	if !live {
		return nil
	}
	return s.c.call(wire.OpUnsubscribe, &wire.UnsubscribeReq{SubID: s.subID}, nil)
}
