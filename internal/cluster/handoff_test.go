package cluster

import (
	"slices"
	"testing"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// TestHandoffBatchAcks drives one batched HANDOFF over the wire: the
// receiver applies the objects in order, answers one flag per object, and
// fences within the batch exactly as across batches — a repeat of a
// version it just accepted (and now holds) is a duplicate.
func TestHandoffBatchAcks(t *testing.T) {
	spec := city.Spec{
		Seed: 5, Cars: 20, Buses: 1,
		GridW: 6, GridH: 6, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 1,
		Ticks: 2, Horizon: 12,
	}
	cty, err := city.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	side := float64(spec.GridW-1) * 100
	c, err := Start(Config{
		Nodes: 2, GridX: 2, GridY: 1,
		Bounds:     geom.Rect{Max: geom.Point{X: side, Y: side}},
		Replicated: []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:       cty.Database,
		Opts:       query.Options{Horizon: spec.Horizon, Regions: cty.Catalog().Regions},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cars := c.srvs[0].DB().Objects(city.CarClass.Name())
	if len(cars) < 2 {
		t.Fatalf("node 0 holds %d cars, want at least 2", len(cars))
	}
	docs := [][]byte{most.EncodeObject(cars[0]), most.EncodeObject(cars[1])}
	a, b := string(cars[0].ID()), string(cars[1].ID())

	peer, err := client.Dial(c.addrs[1], client.WithClientID("peer:test"), client.WithPeer())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	send := func(objs ...wire.HandoffObject) []bool {
		t.Helper()
		resp, err := peer.Handoff(&wire.HandoffReq{From: c.addrs[0], Objects: objs})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Accepted
	}
	got := send(
		wire.HandoffObject{ID: a, Version: 1, Object: docs[0]},
		wire.HandoffObject{ID: b, Version: 1, Object: docs[1]},
		wire.HandoffObject{ID: a, Version: 1, Object: docs[0]},
	)
	if want := []bool{true, true, false}; !slices.Equal(got, want) {
		t.Fatalf("first batch acks %v, want %v", got, want)
	}
	// Both cars sit in node 0's zone, so node 1's post-commit scan hands
	// them straight back — as one batch — before answering: node 0 holds
	// them again, node 1 holds neither.
	for _, id := range []string{a, b} {
		if _, ok := c.srvs[1].DB().Get(most.ObjectID(id)); ok {
			t.Fatalf("node 1 kept %s, which lies outside its zone", id)
		}
		if _, ok := c.srvs[0].DB().Get(most.ObjectID(id)); !ok {
			t.Fatalf("node 0 lost %s", id)
		}
	}
	if out, in, dups, _ := c.nodes[1].Stats(); in != 2 || dups != 1 || out != 2 {
		t.Fatalf("node 1 counted %d applied, %d duplicates, %d sent; want 2, 1, 2", in, dups, out)
	}
	if _, in, _, _ := c.nodes[0].Stats(); in != 2 {
		t.Fatalf("node 0 applied %d returned cars, want 2", in)
	}
}
