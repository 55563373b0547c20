package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// gatedListener hands out connections whose writes block while the gate
// is closed: from the server's side, a client that has stopped reading.
type gatedListener struct {
	net.Listener
	mu      sync.Mutex
	open    chan struct{} // closed while writes may proceed
	blocked atomic.Int32  // writes waiting for the gate
}

func newGatedListener(ln net.Listener) *gatedListener {
	g := &gatedListener{Listener: ln, open: make(chan struct{})}
	close(g.open)
	return g
}

func (g *gatedListener) Accept() (net.Conn, error) {
	c, err := g.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

func (g *gatedListener) pause() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedListener) resume() {
	g.mu.Lock()
	close(g.open)
	g.mu.Unlock()
}

type gatedConn struct {
	net.Conn
	g *gatedListener
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.g.mu.Lock()
	open := c.g.open
	c.g.mu.Unlock()
	select {
	case <-open:
	default:
		c.g.blocked.Add(1)
		<-open
		c.g.blocked.Add(-1)
	}
	return c.Conn.Write(p)
}

// dropConn is a client-side connection that silently drops the dropAt-th
// NOTIFY frame the server sends, breaking a delta chain.
type dropConn struct {
	net.Conn
	r        *bufio.Reader
	pending  bytes.Buffer
	notifies int
	dropAt   int
}

func (c *dropConn) Read(p []byte) (int, error) {
	for c.pending.Len() == 0 {
		var hdr [wire.HeaderSize]byte
		if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
			return 0, err
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[12:16]))
		if _, err := io.ReadFull(c.r, payload); err != nil {
			return 0, err
		}
		if wire.Opcode(hdr[3]) == wire.OpNotify {
			if c.notifies++; c.notifies == c.dropAt {
				continue
			}
		}
		c.pending.Write(hdr[:])
		c.pending.Write(payload)
	}
	return c.pending.Read(p)
}

// installLog records every install of a plan by number, through a handle
// of the test's own on the same shared plan the server subscription uses.
type installLog struct {
	mu   sync.Mutex
	rels map[uint64]*eval.Relation
	last uint64
}

func (l *installLog) add(in query.Install) {
	l.mu.Lock()
	l.rels[in.Gen], l.last = in.Rel, in.Gen
	l.mu.Unlock()
}

func (l *installLog) get(gen uint64) (*eval.Relation, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rels[gen], l.last
}

const streamSrc = `RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 10 INSIDE(o, P)`

// TestDeltaStreamDifferential drives random updates through a version-3
// subscription and checks the client against the server after every
// notify it delivers: the client's answer at seq s must equal
// wire.FromRelation of the plan's install s steps after the initial
// answer, rows and order alike.  Scenarios force the stream's edge
// cases: a client that stops reading (the pump coalesces several installs
// into one delta), the same with a two-install patch ring (the pump falls
// off the ring and sends a full reset; see forceRingOverflow), and a
// NOTIFY lost in transit (the
// next delta's base does not match, and the client re-registers), and
// 8-update batches each committed as one Database.Batch (the plan installs
// at most once per batch, so the subscription gets at most one NOTIFY).
func TestDeltaStreamDifferential(t *testing.T) {
	cases := []struct {
		name    string
		ring    int
		dropAt  int
		batched bool
	}{
		{name: "coalescing", ring: 64},
		{name: "ring overflow", ring: 2},
		{name: "base mismatch", ring: 64, dropAt: 3},
		{name: "batched", ring: 64, batched: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func(n int) { patchRing = n }(patchRing)
			patchRing = tc.ring
			runStreamScenario(t, tc.dropAt, tc.batched)
		})
	}
}

func runStreamScenario(t *testing.T, dropAt int, batched bool) {
	db, err := workload.Fleet(workload.FleetSpec{
		N: 40, Region: geom.Rect{Max: geom.Point{X: 100, Y: 100}}, MaxSpeed: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(db)
	reg := obs.New()
	opts := query.Options{Horizon: 50, Regions: map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)}}
	srv := New(db, eng, Config{BaseOptions: opts, Reg: reg, OutQueue: 1})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedListener(raw)
	go srv.Serve(gate)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	// The test's own handle creates the plan first, so its listener runs
	// before the server subscription's on every install.
	mine, err := eng.Continuous(ftl.MustParse(streamSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Cancel()
	log := &installLog{rels: map[uint64]*eval.Relation{}}
	if err := mine.SubscribeInstalls(log.add); err != nil {
		t.Fatal(err)
	}

	creg := obs.New()
	dialOpts := []client.Option{client.WithObs(creg)}
	if dropAt > 0 {
		dialOpts = append(dialOpts, client.WithDialer(func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &dropConn{Conn: c, r: bufio.NewReader(c), dropAt: dropAt}, nil
		}))
	}
	c, err := client.Dial(gate.Addr().String(), dialOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Protocol() != wire.ProtocolV3 {
		t.Fatalf("negotiated protocol %d, want %d", c.Protocol(), wire.ProtocolV3)
	}
	sub, err := c.Subscribe(streamSrc, 50)
	if err != nil {
		t.Fatal(err)
	}
	in0, err := mine.Installed()
	if err != nil {
		t.Fatal(err)
	}
	g0 := in0.Gen
	log.add(in0)

	// check compares one observation with the install it claims to be.
	checked := 0
	check := func() bool {
		rows, seq, err := sub.Answer()
		if err != nil {
			t.Fatalf("subscription failed: %v", err)
		}
		rel, _ := log.get(g0 + seq)
		if rel == nil {
			t.Fatalf("client at seq %d, but the plan has no install %d", seq, g0+seq)
		}
		if want := wire.FromRelation(rel); !reflect.DeepEqual(rows, want) && !(len(rows) == 0 && len(want) == 0) {
			t.Fatalf("client answer at seq %d differs from install %d:\n got:  %v\n want: %v", seq, g0+seq, rows, want)
		}
		checked++
		_, last := log.get(0)
		return seq == last-g0
	}
	// settle waits until the client holds the newest install, checking
	// every answer it delivers on the way.
	settle := func() {
		deadline := time.After(10 * time.Second)
		for !check() {
			select {
			case <-sub.Updates():
			case <-time.After(20 * time.Millisecond):
			case <-deadline:
				t.Fatal("client never caught up with the newest install")
			}
		}
	}
	// converge waits until the client's answer equals the newest install
	// (after a re-registration the client's sequence numbers no longer
	// map onto install numbers).
	converge := func() {
		deadline := time.After(10 * time.Second)
		for {
			rows, _, err := sub.Answer()
			if err != nil {
				t.Fatalf("subscription failed: %v", err)
			}
			_, last := log.get(0)
			rel, _ := log.get(last)
			if reflect.DeepEqual(rows, wire.FromRelation(rel)) {
				return
			}
			select {
			case <-sub.Updates():
			case <-time.After(20 * time.Millisecond):
			case <-deadline:
				t.Fatalf("client never converged on the newest install %d (resyncs %d):\n got:  %v\n want: %v",
					last, creg.Snapshot().Counters["client.resyncs"], rows, wire.FromRelation(rel))
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		if batched {
			_, gen := log.get(0)
			sent := srv.m.notifies.Value()
			if err := db.Batch(func(tx *most.Tx) error {
				for k := 0; k < 8; k++ {
					id := most.ObjectID(fmt.Sprintf("car-%05d", rng.Intn(40)))
					v := geom.Vector{X: float64(rng.Intn(9) - 4), Y: float64(rng.Intn(9) - 4)}
					if err := tx.SetMotion(id, v, nil); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			settle()
			_, last := log.get(0)
			if n := srv.m.notifies.Value() - sent; last-gen > 1 || n > 1 {
				t.Fatalf("round %d: one batch made %d installs and %d NOTIFYs, want at most one each", round, last-gen, n)
			}
			continue
		}
		gate.pause()
		for k := 1 + rng.Intn(12); k > 0; k-- {
			id := fmt.Sprintf("car-%05d", rng.Intn(40))
			if rng.Intn(25) == 0 {
				db.Advance(temporal.Tick(15))
				continue
			}
			v := geom.Vector{X: float64(rng.Intn(9) - 4), Y: float64(rng.Intn(9) - 4)}
			if err := db.SetMotion(most.ObjectID(id), v); err != nil {
				t.Fatal(err)
			}
		}
		gate.resume()
		if dropAt == 0 {
			settle()
			continue
		}
		// Pace the rounds so NOTIFYs do not all coalesce into fewer than
		// dropAt frames (the dropped one never signals).
		select {
		case <-sub.Updates():
		case <-time.After(100 * time.Millisecond):
		}
	}
	if dropAt > 0 {
		// The chain breaks at the dropped NOTIFY; the next one exposes it.
		converge()
	}
	if patchRing < 8 {
		forceRingOverflow(t, srv, gate, func() {
			for {
				_, before := log.get(0)
				id := fmt.Sprintf("car-%05d", rng.Intn(40))
				v := geom.Vector{X: float64(rng.Intn(9) - 4), Y: float64(rng.Intn(9) - 4)}
				if err := db.SetMotion(most.ObjectID(id), v); err != nil {
					t.Fatal(err)
				}
				if _, last := log.get(0); last > before {
					return
				}
			}
		})
		settle()
	}
	snap := reg.Snapshot().Counters
	t.Logf("%d observations checked; notifies %d, coalesced %d, delta %d, reset %d, rows %d; client resyncs %d",
		checked, snap["server.notifies"], snap["server.notifies_coalesced"], snap["server.notify_delta"],
		snap["server.notify_reset"], snap["server.notify_rows"], creg.Snapshot().Counters["client.resyncs"])
	if snap["server.notify_delta"] == 0 {
		t.Error("no delta NOTIFY was sent")
	}
	switch {
	case dropAt > 0:
		if creg.Snapshot().Counters["client.resyncs"] == 0 {
			t.Error("a dropped NOTIFY never forced a resync")
		}
	case patchRing < 8:
		if snap["server.notify_reset"] == 0 {
			t.Error("ring overflow never forced a reset")
		}
	case batched:
	default:
		if snap["server.notifies_coalesced"] == 0 {
			t.Error("a paused reader never made the pump coalesce")
		}
	}
}

// forceRingOverflow makes the pump of the server's only session fall off
// the patch ring.  With the client's writes held at the gate, it commits
// answer-changing updates (install) one at a time until the writer is
// blocked, the out queue is full and the pump has taken one more install
// it cannot enqueue; patchRing+1 further installs then leave the install
// the client will hold more than a ring behind the newest, so the pump's
// next NOTIFY must be a full reset.
func forceRingOverflow(t *testing.T, srv *Server, gate *gatedListener, install func()) {
	t.Helper()
	srv.mu.Lock()
	var out chan wire.Frame
	for s := range srv.sessions {
		out = s.out
	}
	srv.mu.Unlock()
	notifies := srv.m.notifies
	gate.pause()
	defer gate.resume()
	for {
		// Once the writer waits at the gate and the queue is full, nothing
		// drains the queue: the pump blocks on the next install it takes.
		full := gate.blocked.Load() > 0 && len(out) == cap(out)
		n := notifies.Value()
		install()
		deadline := time.Now().Add(10 * time.Second)
		for notifies.Value() == n {
			if time.Now().After(deadline) {
				t.Fatal("the pump never took an install")
			}
			time.Sleep(time.Millisecond)
		}
		if full {
			break
		}
	}
	for i := 0; i <= patchRing; i++ {
		install()
	}
}

// TestSubscribeResultPrecedesNotifies subscribes many times on one raw
// connection while another connection commits answer-changing batches,
// and reads the raw frames: each subscription's SUBSCRIBE result must
// arrive before any of its NOTIFYs, since a NOTIFY is based on the answer
// that result carries (PROTOCOL.md §6).
func TestSubscribeResultPrecedesNotifies(t *testing.T) {
	const cars, subs = 400, 1500
	_, addr := startTestServer(t, cars, Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	dec := wire.NewDecoder(bufio.NewReader(conn), wire.DefaultMaxPayload)
	hello, _ := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpHello, 1,
		&wire.HelloReq{ClientID: "order", MaxVersion: wire.MaxProtocolVersion})
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.HelloResp
	if err := wire.Unmarshal(f, &hr); err != nil {
		t.Fatal(err)
	}
	dec.SetVersion(uint8(hr.Version))

	w, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		// Steer cars in and out of P, one small batch after another.
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ops := make([]wire.UpdateOp, 4)
			for i := range ops {
				ops[i] = wire.UpdateOp{Op: wire.OpSetMotion, ID: vid(rng.Intn(cars)), VX: rng.Float64()*8 - 4, VY: rng.Float64()*8 - 4}
			}
			if _, err := w.UpdateBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < subs; i++ {
			req, _ := wire.EncodeFrame(uint8(hr.Version), wire.OpSubscribe, uint64(2+i),
				&wire.SubscribeReq{Src: `RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 10 INSIDE(o, P)`})
			if err := wire.WriteFrame(conn, req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	subscribed := map[uint64]bool{}
	notifies, early := 0, 0
	for len(subscribed) < subs {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("after %d results: %v", len(subscribed), err)
		}
		switch f.Op {
		case wire.OpResult:
			var resp wire.SubscribeResp
			if err := wire.Unmarshal(f, &resp); err != nil {
				t.Fatal(err)
			}
			subscribed[resp.SubID] = true
		case wire.OpNotify:
			var n wire.Notify
			if err := wire.Unmarshal(f, &n); err != nil {
				t.Fatal(err)
			}
			notifies++
			if !subscribed[n.SubID] {
				early++
			}
		default:
			t.Fatalf("unexpected %s frame", f.Op)
		}
	}
	if early > 0 {
		t.Fatalf("%d of %d NOTIFYs arrived before their subscription's result", early, notifies)
	}
	if notifies == 0 {
		t.Fatal("no NOTIFY arrived while subscribing: the test raced nothing")
	}
}
