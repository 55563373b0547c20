package cluster

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// stripeCar is one seeded vehicle on the line y = 50: it starts at x and
// moves vx per tick along the x axis.
type stripeCar struct {
	id    string
	x, vx float64
}

// vehicle builds a Vehicles object at (x, 50) moving vx per tick from t0.
func vehicle(id string, x, vx float64) (*most.Object, error) {
	o, err := most.NewObject(most.ObjectID(id), workload.VehicleClass)
	if err != nil {
		return nil, err
	}
	if o, err = o.WithStatic("PRICE", most.Float(1)); err != nil {
		return nil, err
	}
	return o.WithPosition(motion.MovingFrom(geom.Point{X: x, Y: 50}, geom.Vector{X: vx}, 0))
}

// motel builds a parked Motels object at (x, 50).
func motel(id string, x float64) (*most.Object, error) {
	o, err := most.NewObject(most.ObjectID(id), workload.MotelClass)
	if err != nil {
		return nil, err
	}
	for _, kv := range []struct {
		name string
		v    most.Value
	}{{"NAME", most.Str(id)}, {"PRICE", most.Float(40)}, {"AVAILABLE", most.Bool(true)}} {
		if o, err = o.WithStatic(kv.name, kv.v); err != nil {
			return nil, err
		}
	}
	return o.WithPosition(motion.PositionAt(geom.Point{X: x, Y: 50}, 0))
}

// stripeWorld seeds the cars and one motel at x = 50.
func stripeWorld(cars ...stripeCar) func() (*most.Database, error) {
	return func() (*most.Database, error) {
		db := most.NewDatabase()
		for _, c := range []*most.Class{workload.VehicleClass, workload.MotelClass} {
			if err := db.DefineClass(c); err != nil {
				return nil, err
			}
		}
		m, err := motel("motel-0", 50)
		if err != nil {
			return nil, err
		}
		objs := []*most.Object{m}
		for _, c := range cars {
			o, err := vehicle(c.id, c.x, c.vx)
			if err != nil {
				return nil, err
			}
			objs = append(objs, o)
		}
		for _, o := range objs {
			if err := db.Insert(o); err != nil {
				return nil, err
			}
		}
		return db, nil
	}
}

// startStripes runs one node per 100-wide vertical stripe of
// [0, 100n] x [0, 100], Motels replicated, and a router bootstrapped
// before any tick: its owner cache is the seed's placement.
func startStripes(t *testing.T, n int, seed func() (*most.Database, error)) (*Cluster, *Router) {
	t.Helper()
	c, err := Start(Config{
		Nodes: n, GridX: n, GridY: 1,
		Bounds:     geom.Rect{Max: geom.Point{X: 100 * float64(n), Y: 100}},
		Replicated: []string{workload.MotelClass.Name()},
		Seed:       seed,
		Opts:       query.Options{Horizon: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r, err := c.Router(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return c, r
}

// holders lists the nodes whose database holds id.
func holders(c *Cluster, id string) []int {
	var at []int
	for i, srv := range c.srvs {
		if _, ok := srv.DB().Get(most.ObjectID(id)); ok {
			at = append(at, i)
		}
	}
	return at
}

func motionOp(id string, vx, vy float64) wire.UpdateOp {
	return wire.UpdateOp{Op: wire.OpSetMotion, ID: id, VX: vx, VY: vy}
}

// The crossing cars: after two ticks "fast" has run west stripe → middle
// → east, "slow" west → middle and "back" middle → west; each hop leaves
// a tombstone naming where the car went.
var crossing = []stripeCar{
	{"fast", 95, 60}, {"slow", 95, 10}, {"stay", 50, 0}, {"back", 150, -30}, {"east", 250, 0},
}

// crossTwoTicks advances two ticks, one rebalance barrier each, so every
// crossing car hands off one stripe at a time.
func crossTwoTicks(t *testing.T, r *Router) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterRegroupsStaleBatch routes one batch through an owner cache
// that predates two ticks of handoffs.  The west node refuses its group
// as mixed, the regrouped middle subgroup is refused as mixed again, and
// the second regroup lands every op at its owner: the cluster's state
// equals a single node's that applied the same advances and updates.
func TestRouterRegroupsStaleBatch(t *testing.T) {
	seed := stripeWorld(crossing...)
	c, r := startStripes(t, 3, seed)
	crossTwoTicks(t, r)
	oracle, err := seed()
	if err != nil {
		t.Fatal(err)
	}
	oracle.Advance(2)
	if at := holders(c, "fast"); r.owner["fast"] != c.addrs[0] || !slices.Equal(at, []int{2}) {
		t.Fatalf("cache names %s for fast, held by nodes %v: want a stale west entry for a car now east", r.owner["fast"], at)
	}

	var ops []wire.UpdateOp
	for i, car := range crossing {
		op := motionOp(car.id, float64(i+1), -1)
		ops = append(ops, op)
		if err := oracle.SetMotion(most.ObjectID(op.ID), geom.Vector{X: op.VX, Y: op.VY}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := r.UpdateBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != len(ops) {
		t.Fatalf("applied %d ops, want %d", resp.Applied, len(ops))
	}

	for _, want := range oracle.Objects("") {
		id := string(want.ID())
		at := holders(c, id)
		copies := 1
		if want.Class().Name() == workload.MotelClass.Name() {
			copies = len(c.srvs)
		}
		if len(at) != copies {
			t.Fatalf("%s held by nodes %v, want %d", id, at, copies)
		}
		for _, i := range at {
			got, _ := c.srvs[i].DB().Get(want.ID())
			if !bytes.Equal(most.EncodeObject(got), most.EncodeObject(want)) {
				t.Fatalf("%s on node %d differs from the single-node oracle", id, i)
			}
		}
	}
	// Every op landed at its owner, and the cache learned each from the
	// node that applied it: "back" hopped from the middle node to west.
	for id, node := range map[string]int{"fast": 2, "slow": 1, "stay": 0, "back": 0, "east": 2} {
		if r.owner[id] != c.addrs[node] {
			t.Fatalf("cache names %s for %s, want node %d", r.owner[id], id, node)
		}
	}
}

// ring is a stub gate on node self of a three-node ring that names
// another node as every op's owner: the next node, or with perOp the node
// after it for "ghost-2", so a batch of both ops is refused with per-op
// Redirects instead of one Addr.
type ring struct {
	self  int
	addrs []string
	zm    *wire.ZoneMapResp
	perOp bool
}

func (g *ring) RouteOp(op *wire.UpdateOp) (string, bool, bool) {
	next := g.self + 1
	if g.perOp && op.ID == "ghost-2" {
		next++
	}
	return g.addrs[next%len(g.addrs)], false, false
}
func (g *ring) ZoneMap() *wire.ZoneMapResp { return g.zm }
func (g *ring) AfterCommit([]string)       {}
func (g *ring) Handoff(*wire.HandoffReq, *most.Prov) (*wire.HandoffResp, error) {
	return nil, errors.New("ring: no handoffs")
}

// TestRouterHopBudget runs three nodes whose gates each name another node
// as every op's owner.  Following the refusals, by Addr or by Redirects,
// must end in the redirect-loop error once each op has ridden maxHops
// sends, not loop.
func TestRouterHopBudget(t *testing.T) {
	for _, perOp := range []bool{false, true} {
		var lns []net.Listener
		var addrs []string
		for i := 0; i < 3; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns = append(lns, ln)
			addrs = append(addrs, ln.Addr().String())
		}
		zm, err := NewGridMap(geom.Rect{Max: geom.Point{X: 300, Y: 100}}, 3, 1, addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, ln := range lns {
			db := most.NewDatabase()
			hooks := &ring{self: i, addrs: addrs, zm: zm.Wire(), perOp: perOp}
			srv := server.New(db, query.NewEngine(db), server.Config{Cluster: hooks})
			go srv.Serve(ln)
			t.Cleanup(srv.Abort)
		}
		r, err := NewRouter(addrs[0], "hop", nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.UpdateBatch([]wire.UpdateOp{motionOp("ghost", 1, 0), motionOp("ghost-2", 1, 0)})
		r.Close()
		if err == nil || !strings.Contains(err.Error(), "redirect loop") {
			t.Fatalf("perOp=%v: got %v, want the redirect-loop error", perOp, err)
		}
		// By Addr both ops ride one group through maxHops sends, each
		// refused onward.  By Redirects the first send splits them, and
		// each then rides its own maxHops-1: maxHops sends per op either
		// way.
		want := RouterStats{Sends: maxHops, Hops: maxHops, Loops: 1}
		if perOp {
			want = RouterStats{Sends: 1 + 2*(maxHops-1), Hops: 2 * (maxHops - 1), Regroups: 1, Loops: 2}
		}
		if got := r.Stats(); got != want {
			t.Fatalf("perOp=%v: stats %+v, want %+v", perOp, got, want)
		}
	}
}

// TestRouterInserts routes fresh inserts: a partitioned-class object
// lands only on the node owning its position, and the router learns that
// node as its owner, so a later update goes straight there without a
// heal; a replicated-class object lands on every node, and the router
// remembers it as replicated, so a later update reaches every copy.
func TestRouterInserts(t *testing.T) {
	c, r := startStripes(t, 3, stripeWorld())
	car, err := vehicle("car-new", 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	inn, err := motel("motel-new", 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.UpdateBatch([]wire.UpdateOp{
		{Op: wire.OpInsert, ID: "car-new", Object: most.EncodeObject(car)},
		{Op: wire.OpInsert, ID: "motel-new", Object: most.EncodeObject(inn)},
	}); err != nil {
		t.Fatal(err)
	}
	if at := holders(c, "car-new"); !slices.Equal(at, []int{2}) {
		t.Fatalf("car-new held by nodes %v, want only its zone owner [2]", at)
	}
	if at := holders(c, "motel-new"); !slices.Equal(at, []int{0, 1, 2}) {
		t.Fatalf("motel-new held by nodes %v, want every node", at)
	}
	if !r.repl["motel-new"] {
		t.Fatal("router does not remember motel-new as replicated")
	}
	if r.owner["car-new"] != c.addrs[2] {
		t.Fatalf("cache names %q for car-new, want its zone owner %q", r.owner["car-new"], c.addrs[2])
	}
	before := r.Stats()
	if err := r.SetMotion("car-new", 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got.Heals != before.Heals || got.Sends != before.Sends+1 {
		t.Fatalf("update to car-new: stats %+v after %+v, want one send and no heal", got, before)
	}
	if o, _ := c.srvs[2].DB().Get("car-new"); o == nil {
		t.Fatal("car-new left its zone owner")
	} else if p, err := o.PositionAt(c.srvs[2].DB().Now() + 2); err != nil || p.Y != 60 {
		t.Fatalf("car-new at %v (%v) two ticks on, want y = 60", p, err)
	}
	if err := r.SetMotion("motel-new", 5, 0); err != nil {
		t.Fatal(err)
	}
	for i, srv := range c.srvs {
		o, _ := srv.DB().Get("motel-new")
		if p, err := o.PositionAt(srv.DB().Now() + 2); err != nil || p.X != 160 {
			t.Fatalf("node %d: motel-new at %v (%v) two ticks on, want x = 160", i, p, err)
		}
	}
}
