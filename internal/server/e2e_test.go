package server

// End-to-end concurrency test: many pipelining writer clients and several
// streaming subscribers hammer one server under the race detector, while a
// deliberately stalled subscriber (a raw connection that completes the
// handshake, subscribes, and then never reads again) jams its socket.  The
// server must (a) disconnect the slow consumer within the backpressure
// budget, (b) keep every other session committing throughout, and (c) keep
// the commit path itself off the stalled socket — pure apply latency stays
// far below the write budget even while the stall is in force.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

func TestServerBackpressureE2E(t *testing.T) {
	const (
		nVehicles   = 120
		writers     = 8
		subscribers = 4
		budget      = 400 * time.Millisecond
	)
	reg := obs.New()
	srv, addr := startTestServer(t, nVehicles, Config{
		Reg:         reg,
		WriteBudget: budget,
		OutQueue:    8,
		BaseOptions: query.Options{
			Horizon: 50,
			// The region covers the whole fleet so every push carries the
			// full 120-row answer: fat enough to jam a non-reading peer's
			// socket quickly, while delta maintenance keeps the per-update
			// apply cost tiny (the single-variable query patches only the
			// moved object).
			Regions: map[string]geom.Polygon{"P": geom.RectPolygon(0, 0, 100, 100)},
		},
	})
	_ = srv

	// Bounded Eventually: decomposable, so each update takes the engine's
	// incremental delta path instead of a full reevaluation.
	const subSrc = `RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 30 INSIDE(o, P)`

	// Healthy subscribers: real clients whose read loops always drain.
	var healthy []*client.Subscription
	for i := 0; i < subscribers; i++ {
		c, err := client.Dial(addr, client.WithClientID(fmt.Sprintf("sub-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sub, err := c.Subscribe(subSrc, 50)
		if err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, sub)
	}

	// The stalled subscriber: handshake and subscribe by hand, then stop
	// reading forever.  A tiny receive buffer closes the TCP window fast.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tcp, ok := raw.(*net.TCPConn); ok {
		tcp.SetReadBuffer(2048)
	}
	dec := wire.NewDecoder(raw, wire.DefaultMaxPayload)
	mustCall := func(op wire.Opcode, id uint64, payload any) wire.Frame {
		t.Helper()
		f, err := wire.EncodeFrame(wire.ProtocolV2, op, id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(raw, f); err != nil {
			t.Fatal(err)
		}
		resp, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mustCall(wire.OpHello, 1, &wire.HelloReq{ClientID: "stalled", MaxVersion: wire.ProtocolV2})
	mustCall(wire.OpSubscribe, 2, &wire.SubscribeReq{Src: subSrc, Horizon: 50})
	stallStart := time.Now()

	// Pipelining writers: each client fires batched motion updates as fast
	// as the server acknowledges them.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		commits  atomic.Int64
		writeErr atomic.Value
	)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithClientID(fmt.Sprintf("writer-%d", w)))
			if err != nil {
				writeErr.Store(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w) * 271))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := make([]wire.UpdateOp, 4)
				for i := range ops {
					ops[i] = wire.UpdateOp{
						Op: wire.OpSetMotion,
						ID: vid(rng.Intn(nVehicles)),
						VX: (rng.Float64() - 0.5) * 4,
						VY: (rng.Float64() - 0.5) * 4,
					}
				}
				if _, err := c.UpdateBatch(ops); err != nil {
					writeErr.Store(err)
					return
				}
				commits.Add(1)
			}
		}()
	}

	// The slow consumer must be detected and cut loose.
	detectDeadline := time.After(20 * time.Second)
	for reg.Snapshot().Counters["server.slow_consumer_disconnects"] == 0 {
		select {
		case <-detectDeadline:
			close(stop)
			wg.Wait()
			t.Fatalf("slow consumer never disconnected; commits=%d", commits.Load())
		case <-time.After(20 * time.Millisecond):
		}
	}
	detectTime := time.Since(stallStart)
	t.Logf("slow consumer disconnected after %v (budget %v); commits so far: %d",
		detectTime, budget, commits.Load())

	// Everyone else keeps committing after the disconnect.
	before := commits.Load()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatalf("writer failed: %v", err)
	}
	after := commits.Load()
	if after <= before {
		t.Fatalf("no commits after slow-consumer disconnect (before=%d after=%d)", before, after)
	}

	// Healthy subscriptions survived the stall.
	for i, sub := range healthy {
		if _, _, err := sub.Answer(); err != nil {
			t.Fatalf("healthy subscriber %d failed: %v", i, err)
		}
	}

	// The commit path never waited on the stalled socket: pure apply
	// latency stays well inside the write budget.
	snap := reg.Snapshot()
	applyP99 := time.Duration(snap.Histograms["server.apply_ns"].P99)
	if applyP99 >= budget {
		t.Fatalf("apply p99 = %v, not bounded below the %v write budget", applyP99, budget)
	}
	if snap.Counters["server.slow_consumer_disconnects"] < 1 {
		t.Fatal("slow-consumer counter lost")
	}
	if after < int64(writers) {
		t.Fatalf("writers made almost no progress: %d commits", after)
	}
	t.Logf("total commits %d, apply p99 %v, notifies %d (coalesced %d)",
		after, applyP99,
		snap.Counters["server.notifies"], snap.Counters["server.notifies_coalesced"])
}
