package client

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// startServer serves a small fleet for client tests.  The server package's
// own tests cover the service side; these exercise the client's API
// surface, retry discipline, and lifecycle.
func startServer(t *testing.T, n int) (*server.Server, string) {
	t.Helper()
	db, err := workload.Fleet(workload.FleetSpec{
		N:        n,
		Region:   geom.Rect{Max: geom.Point{X: 100, Y: 100}},
		MaxSpeed: 2,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, query.NewEngine(db), server.Config{
		BaseOptions: query.Options{
			Horizon: 50,
			Regions: map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)},
		},
	})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func TestClientTypedCalls(t *testing.T) {
	_, addr := startServer(t, 8)
	c, err := Dial(addr,
		WithClientID("typed-calls"),
		WithTimeout(5*time.Second),
		WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	now, _, err := c.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetMotion("car-00000", 1, 1); err != nil {
		t.Fatal(err)
	}
	tick, err := c.Advance(2)
	if err != nil {
		t.Fatal(err)
	}
	if tick != now+2 {
		t.Fatalf("advance: got %d, want %d", tick, now+2)
	}
	objs, err := c.Objects("")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs.Objects) != 8 {
		t.Fatalf("objects: %d, want 8", len(objs.Objects))
	}

	data, err := c.SnapshotSave()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := most.LoadSnapshotJSON(data); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	resp, err := c.SnapshotLoad(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Objects != 8 {
		t.Fatalf("load: %d objects, want 8", resp.Objects)
	}
}

func TestClientServerErrorsNotRetried(t *testing.T) {
	_, addr := startServer(t, 3)
	c, err := Dial(addr, WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A semantic error comes back once; the retry loop must not kick in
	// (it would be visible as a multi-second backoff delay).
	start := time.Now()
	_, _, err = c.Query(`RETRIEVE`, 0)
	if err == nil {
		t.Fatal("malformed query succeeded")
	}
	if !strings.Contains(err.Error(), "server:") {
		t.Fatalf("not a server-reported error: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("server error took %v; was it retried?", d)
	}
	if err := c.SetMotion("no-such-object", 1, 0); err == nil {
		t.Fatal("update of missing object succeeded")
	}
	// The connection survives server-reported errors.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestClientClosedLifecycle(t *testing.T) {
	_, addr := startServer(t, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ping on closed client: %v, want ErrClosed", err)
	}
}

func TestClientDialFailure(t *testing.T) {
	// A dead address fails after the retry budget, not forever.
	_, err := Dial("127.0.0.1:1", WithRetries(1))
	if err != nil {
		return // immediate refusal is fine
	}
	t.Fatal("dial of a dead port succeeded")
}

// parkedInsert builds an OpInsert for a fresh vehicle parked at (x, y).
func parkedInsert(t *testing.T, id string, x, y float64) wire.UpdateOp {
	t.Helper()
	o, err := most.NewObject(most.ObjectID(id), workload.VehicleClass)
	if err != nil {
		t.Fatal(err)
	}
	if o, err = o.WithStatic("PRICE", most.Float(1)); err != nil {
		t.Fatal(err)
	}
	if o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: x, Y: y}, geom.Vector{}, 0)); err != nil {
		t.Fatal(err)
	}
	return wire.UpdateOp{Op: wire.OpInsert, ID: id, Object: most.EncodeObject(o)}
}

func TestClientSubscriptionLifecycle(t *testing.T) {
	srv, addr := startServer(t, 6)
	_ = srv
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Subscribe(`RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 30 INSIDE(o, P)`, 50)
	if err != nil {
		t.Fatal(err)
	}
	answer0, seq0, err := sub.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Current(0); err != nil {
		t.Fatal(err)
	}
	_ = answer0

	// A deterministically answer-changing update pushes a new answer:
	// inserting a fresh vehicle parked inside P adds a tuple no matter
	// where the existing fleet is.  (A motion change on an existing car is
	// no longer guaranteed to push — it may be skipped as spatially
	// irrelevant or suppressed as a no-change install.)
	if _, err := c.UpdateBatch([]wire.UpdateOp{parkedInsert(t, "car-fresh", 25, 25)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		_, seq, err := sub.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if seq > seq0 {
			break
		}
		select {
		case <-sub.Updates():
		case <-deadline:
			t.Fatal("no push within 10s")
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("live subscription reports error: %v", err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not signalled after Close")
	}
	// Answer after close still returns the last answer with the error.
	if _, _, err := sub.Answer(); err == nil {
		t.Fatal("closed subscription reports no error")
	}

	// A malformed subscription is rejected by the server.
	if _, err := c.Subscribe(`RETRIEVE`, 50); err == nil {
		t.Fatal("malformed subscribe succeeded")
	}
}

func TestClientSubscriptionFailsOnClose(t *testing.T) {
	_, addr := startServer(t, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscription not failed by client close")
	}
	if sub.Err() == nil {
		t.Fatal("subscription has no error after client close")
	}
}

// TestSubscribeUnderCommits subscribes many times, from several
// goroutines at once, while another connection commits answer-changing
// batches.  The client registers each subscription as its result is
// read, so no NOTIFY finds its subscription unknown: no delta chain
// breaks (no resync), and every subscription ends on the answer a fresh
// subscription reads once the commits stop.
func TestSubscribeUnderCommits(t *testing.T) {
	const cars, subs, readers = 300, 120, 4
	const src = `RETRIEVE o FROM Vehicles o WHERE Eventually WITHIN 10 INSIDE(o, P)`
	_, addr := startServer(t, cars)
	reg := obs.New()
	c, err := Dial(addr, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
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
				ops[i] = wire.UpdateOp{Op: wire.OpSetMotion, ID: fmt.Sprintf("car-%05d", rng.Intn(cars)),
					VX: rng.Float64()*8 - 4, VY: rng.Float64()*8 - 4}
			}
			if _, err := w.UpdateBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	all := make([]*Subscription, subs)
	errs := make([]error, subs)
	var sg sync.WaitGroup
	for g := 0; g < readers; g++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for i := g; i < subs; i += readers {
				all[i], errs[i] = c.Subscribe(src, 50)
			}
		}()
	}
	sg.Wait()
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	ref, err := c.Subscribe(src, 50)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := ref.Answer()
	if err != nil {
		t.Fatal(err)
	}
	want := wire.CanonicalAnswers(rows)
	deadline := time.After(10 * time.Second)
	for i, sub := range all {
		for {
			rows, _, err := sub.Answer()
			if err != nil {
				t.Fatal(err)
			}
			if wire.CanonicalAnswers(rows) == want {
				break
			}
			select {
			case <-sub.Updates():
			case <-deadline:
				t.Fatalf("subscription %d never reached the final answer", i)
			}
		}
	}
	if n := reg.Counter("client.resyncs").Value(); n != 0 {
		t.Fatalf("%d subscriptions resynced: a NOTIFY was dropped", n)
	}
}
