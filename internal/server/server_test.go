package server

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// startTestServer serves a fresh n-vehicle fleet on a loopback listener
// and returns the server plus its address.
func startTestServer(t *testing.T, n int, cfg Config) (*Server, string) {
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
	eng := query.NewEngine(db)
	if cfg.Reg != nil {
		db.Instrument(cfg.Reg)
		eng.Instrument(cfg.Reg)
	}
	if cfg.BaseOptions.Horizon == 0 {
		cfg.BaseOptions.Horizon = 50
	}
	if cfg.BaseOptions.Regions == nil {
		cfg.BaseOptions.Regions = map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)}
	}
	srv := New(db, eng, cfg)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, srv.Addr().String()
}

func vid(i int) string { return fmt.Sprintf("car-%05d", i) }

func TestServerRoundTrip(t *testing.T) {
	reg := obs.New()
	srv, addr := startTestServer(t, 10, Config{Reg: reg})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	now, rows, err := c.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 50)
	if err != nil {
		t.Fatal(err)
	}
	if now != srv.state().db.Now() {
		t.Fatalf("query now = %d, server now = %d", now, srv.state().db.Now())
	}
	t.Logf("query: %d rows at t=%d", len(rows), now)

	// Batched updates apply in order, once.
	resp, err := c.UpdateBatch([]wire.UpdateOp{
		{Op: wire.OpSetMotion, ID: vid(0), VX: 1, VY: 0},
		{Op: wire.OpSetMotion, ID: vid(1), VX: 0, VY: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 {
		t.Fatalf("applied = %d, want 2", resp.Applied)
	}
	if resp.Version != srv.state().db.Version() {
		t.Fatalf("version = %d, db version = %d", resp.Version, srv.state().db.Version())
	}

	// A bad op reports an error and stops the batch.
	if _, err := c.UpdateBatch([]wire.UpdateOp{
		{Op: wire.OpSetMotion, ID: "no-such-object", VX: 1, VY: 0},
	}); err == nil {
		t.Fatal("batch against missing object succeeded")
	}

	// Clock advance is visible to subsequent queries.
	tick, err := c.Advance(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := srv.state().db.Now(); tick != want {
		t.Fatalf("advance returned %d, server at %d", tick, want)
	}

	objs, err := c.Objects("Vehicles")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs.Objects) != 10 {
		t.Fatalf("objects = %d, want 10", len(objs.Objects))
	}
	if !objs.Objects[0].HasPos {
		t.Fatal("vehicle without position")
	}

	// Instruments moved.
	snap := reg.Snapshot()
	if snap.Counters["server.connections_total"] < 1 {
		t.Fatal("no connections counted")
	}
	if snap.Histograms["server.op_ns.query"].Count < 1 {
		t.Fatal("no query latency observed")
	}
	if snap.Histograms["server.apply_ns"].Count < 1 {
		t.Fatal("no apply latency observed")
	}
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

func TestServerSubscription(t *testing.T) {
	srv, addr := startTestServer(t, 6, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Subscribe(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, seq0, err := sub.Answer()
	if err != nil {
		t.Fatal(err)
	}

	// A deterministically answer-changing update triggers a maintenance
	// round and a push: inserting a fresh vehicle parked inside P adds a
	// tuple no matter where the existing fleet is.  (A motion change on an
	// existing car is no longer guaranteed to push — it may be skipped as
	// spatially irrelevant or suppressed as a no-change install.)
	if _, err := c.UpdateBatch([]wire.UpdateOp{parkedInsert(t, "car-fresh", 25, 25)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
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
			t.Fatal("no notify within 5s of a relevant update")
		}
	}

	// The pushed answer matches the engine's materialized relation.
	st := srv.state()
	// Reach through the engine: a second in-process evaluation must agree
	// with what the wire carried.
	rows, err := sub.Current(st.db.Now())
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.eng.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`,
		query.Options{Horizon: 50, Regions: srv.cfg.BaseOptions.Regions})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("subscription presents %d rows, engine %d", len(rows), len(want))
	}

	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.m.subscriptions.Value() != 0 {
		t.Fatalf("subscriptions gauge = %d after close", srv.m.subscriptions.Value())
	}
}

func TestServerSnapshotSaveLoad(t *testing.T) {
	_, addr := startTestServer(t, 5, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data, err := c.SnapshotSave()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := most.LoadSnapshotJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != 5 {
		t.Fatalf("snapshot holds %d objects, want 5", restored.Count())
	}

	// A live subscription ends with a SubClosed push when the database is
	// replaced.
	sub, err := c.Subscribe(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 50)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.SnapshotLoad(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Objects != 5 {
		t.Fatalf("load reports %d objects, want 5", resp.Objects)
	}
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscription not closed by snapshot load")
	}
	// Queries keep working against the swapped state.
	if _, _, err := c.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, 50); err != nil {
		t.Fatal(err)
	}
}

// An insert whose class lists the server's attributes in another order is
// refused, not decoded onto the wrong attributes.
func TestServerRefusesReorderedClassInsert(t *testing.T) {
	_, addr := startTestServer(t, 1, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, b := most.AttrDef{Name: "A", Kind: most.Static}, most.AttrDef{Name: "B", Kind: most.Static}
	declared, swapped := most.MustClass("Tags", false, a, b), most.MustClass("Tags", false, b, a)
	db := most.NewDatabase()
	if err := db.DefineClass(declared); err != nil {
		t.Fatal(err)
	}
	data, err := db.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapshotLoad(data); err != nil {
		t.Fatal(err)
	}
	insert := func(id string, class *most.Class) error {
		o, err := most.NewObject(most.ObjectID(id), class)
		if err != nil {
			t.Fatal(err)
		}
		if o, err = o.WithStatic("A", most.Float(1)); err != nil {
			t.Fatal(err)
		}
		_, err = c.UpdateBatch([]wire.UpdateOp{{Op: wire.OpInsert, ID: id, Object: most.EncodeObject(o)}})
		return err
	}
	if err := insert("swapped", swapped); err == nil {
		t.Fatal("insert of a reordered-class object succeeded")
	}
	if err := insert("declared", declared); err != nil {
		t.Fatalf("insert of a declared-class object: %v", err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv, addr := startTestServer(t, 5, Config{})
	c, err := client.Dial(addr, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained server refuses new work.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv, addr := startTestServer(t, 3, Config{})
	_ = srv
	// A raw connection spewing non-protocol bytes is dropped without
	// taking the server down.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed on us, as it should
		}
	}
	conn.Close()

	// The server still serves well-formed clients.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestEndedSessionsLeaveEpochTable checks that the epoch table keeps no
// ended session reachable: every client.Dial says Hello under a fresh
// identity at an epoch of at least 1, and once its session ends no epoch
// entry may still point at it.
func TestEndedSessionsLeaveEpochTable(t *testing.T) {
	srv, addr := startTestServer(t, 3, Config{})
	const clients = 8
	for i := 0; i < clients; i++ {
		c, err := client.Dial(addr, client.WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.sessions)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still open after every client closed", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.epochMu.Lock()
	defer srv.epochMu.Unlock()
	if len(srv.epochs) != clients {
		t.Fatalf("epoch table holds %d clients, want %d", len(srv.epochs), clients)
	}
	for id, ce := range srv.epochs {
		if _, live := srv.sessions[ce.sess]; ce.sess != nil && !live {
			t.Errorf("epoch entry of %s (epoch %d) still points at its ended session", id, ce.epoch)
		}
	}
}
