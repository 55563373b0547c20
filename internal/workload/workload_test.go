package workload

import (
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

var testRegion = geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 100, Y: 100}}

func TestFleetDeterministic(t *testing.T) {
	spec := FleetSpec{N: 25, Region: testRegion, MaxSpeed: 3, Seed: 7}
	db1, err := Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if db1.Count() != 25 || db2.Count() != 25 {
		t.Fatalf("counts = %d %d", db1.Count(), db2.Count())
	}
	for _, o1 := range db1.Objects("Vehicles") {
		o2, ok := db2.Get(o1.ID())
		if !ok {
			t.Fatalf("missing %s", o1.ID())
		}
		p1, _ := o1.PositionAt(10)
		p2, _ := o2.PositionAt(10)
		if p1 != p2 {
			t.Fatalf("nondeterministic fleet: %v vs %v", p1, p2)
		}
		// Positions start inside the region.
		p0, _ := o1.PositionAt(0)
		if !testRegion.ContainsPoint(p0) {
			t.Fatalf("start %v outside region", p0)
		}
	}
}

func TestUpdateStreamAndApply(t *testing.T) {
	spec := FleetSpec{N: 10, Region: testRegion, MaxSpeed: 2, Seed: 3}
	db, err := Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	events := UpdateStream(spec, 0.1, 50)
	if len(events) == 0 {
		t.Fatal("expected some updates at rate 0.1")
	}
	// Events are within range and reference fleet vehicles.
	for _, e := range events {
		if e.Tick < 1 || e.Tick > 50 {
			t.Fatalf("event tick %d out of range", e.Tick)
		}
		if _, ok := db.Get(e.Object); !ok {
			t.Fatalf("event for unknown object %s", e.Object)
		}
	}
	n, err := Apply(db, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("applied %d of %d", n, len(events))
	}
	if db.Now() == 0 {
		t.Fatal("clock should have advanced")
	}
	if got := db.Version(); got < uint64(len(events)) {
		t.Fatalf("%d updates committed, want >= %d", got, len(events))
	}
}

func TestUpdateTrafficRatio(t *testing.T) {
	spec := FleetSpec{N: 100, Region: testRegion, MaxSpeed: 2, Seed: 5}
	pos, vec := UpdateTraffic(spec, 0.02, 100)
	if pos != 100*100 {
		t.Fatalf("position messages = %d", pos)
	}
	// Vector messages should be roughly rate*N*T = 200, and far below pos.
	if vec < 100 || vec > 400 {
		t.Fatalf("vector messages = %d, want around 200", vec)
	}
	if vec*10 > pos {
		t.Fatalf("motion-vector traffic (%d) not well below position traffic (%d)", vec, pos)
	}
}

func TestAddMotels(t *testing.T) {
	db := most.NewDatabase()
	if err := AddMotels(db, MotelsSpec{N: 30, Region: testRegion, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	motels := db.Objects("Motels")
	if len(motels) != 30 {
		t.Fatalf("motels = %d", len(motels))
	}
	for _, m := range motels {
		price, err := m.Static("PRICE")
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := price.AsFloat(); !ok || f < 30 || f > 230 {
			t.Fatalf("price = %v", price)
		}
		// Motels are stationary.
		p0, _ := m.PositionAt(0)
		p9, _ := m.PositionAt(999)
		if p0 != p9 {
			t.Fatal("motel moved")
		}
	}
	// Adding to a db that already defines the class works (e.g. on top of
	// a fleet database).
	if err := AddMotels(db, MotelsSpec{N: 5, Region: testRegion, Seed: 9}); err == nil {
		// Same ids collide; expect error.
		t.Fatal("duplicate motel ids should fail")
	}
}

func TestAirspace(t *testing.T) {
	spec := AirspaceSpec{N: 40, Radius: 100, Airport: geom.Point{X: 500, Y: 500}, Speed: 2, Inbound: 0.5, Seed: 11}
	db, err := Airspace(spec)
	if err != nil {
		t.Fatal(err)
	}
	aircraft := db.Objects("Aircraft")
	if len(aircraft) != 40 {
		t.Fatalf("aircraft = %d", len(aircraft))
	}
	inbound := 0
	for _, a := range aircraft {
		p0, _ := a.PositionAt(0)
		d0 := geom.Dist(p0, spec.Airport)
		if d0 < spec.Radius-1 || d0 > spec.Radius+1 {
			t.Fatalf("aircraft starts at distance %v, want ~%v", d0, spec.Radius)
		}
		// Inbound aircraft get closer over time.
		p10, _ := a.PositionAt(10)
		if geom.Dist(p10, spec.Airport) < d0-1 {
			inbound++
		}
		// Fuel decreases.
		f0, _ := a.ValueAt("FUEL", 0)
		f10, _ := a.ValueAt("FUEL", 10)
		if f10.F >= f0.F {
			t.Fatal("fuel should burn")
		}
	}
	if inbound < 10 || inbound > 30 {
		t.Fatalf("inbound = %d of 40, want around 20", inbound)
	}
	_ = temporal.Tick(0)
}
