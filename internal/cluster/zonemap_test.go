package cluster

import (
	"reflect"
	"testing"

	"github.com/mostdb/most/internal/geom"
)

func testBounds() geom.Rect {
	return geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 300, Y: 200}}
}

func TestGridMapOwnership(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3"}
	m, err := NewGridMap(testBounds(), 3, 2, addrs, []string{"POIs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Zones) != 6 {
		t.Fatalf("got %d zones, want 6", len(m.Zones))
	}
	// Round-robin assignment spreads zones across every node.
	for i, z := range m.Zones {
		if want := addrs[i%3]; z.Addr != want {
			t.Fatalf("zone %d assigned %s, want %s", i, z.Addr, want)
		}
	}
	cases := []struct {
		p    geom.Point
		addr string
	}{
		{geom.Point{X: 50, Y: 50}, "a:1"},   // zone 0 interior
		{geom.Point{X: 150, Y: 50}, "b:2"},  // zone 1 interior
		{geom.Point{X: 250, Y: 150}, "c:3"}, // zone 5 interior
		{geom.Point{X: 100, Y: 0}, "b:2"},   // seam: half-open, belongs right
		{geom.Point{X: 0, Y: 100}, "a:1"},   // seam: belongs upper-left zone 3
		{geom.Point{X: 300, Y: 200}, "c:3"}, // outer corner included (closed max edge)
		{geom.Point{X: -40, Y: -40}, "a:1"}, // outside: clamps to nearest
		{geom.Point{X: 900, Y: 900}, "c:3"}, // outside: clamps to nearest
		{geom.Point{X: 150, Y: -10}, "b:2"}, // outside below middle column
	}
	for _, tc := range cases {
		if got := m.OwnerAt(tc.p); got != tc.addr {
			t.Errorf("OwnerAt(%+v) = %s, want %s", tc.p, got, tc.addr)
		}
	}
	// The ownership function is total and single-valued over a fine sweep.
	for x := -10.0; x <= 310; x += 7 {
		for y := -10.0; y <= 210; y += 7 {
			if m.OwnerAt(geom.Point{X: x, Y: y}) == "" {
				t.Fatalf("OwnerAt(%g, %g) returned no owner", x, y)
			}
		}
	}
	if !m.IsReplicated("POIs") || m.IsReplicated("Cars") {
		t.Fatal("replicated-class set wrong")
	}
	if got := len(m.ZonesOf("a:1")); got != 2 {
		t.Fatalf("ZonesOf(a:1) = %d zones, want 2", got)
	}
}

func TestZoneMapWireRoundTrip(t *testing.T) {
	m, err := NewGridMap(testBounds(), 2, 2, []string{"x:1", "y:2"}, []string{"Buses", "POIs"})
	if err != nil {
		t.Fatal(err)
	}
	back := FromWire(m.Wire())
	if back.Epoch != m.Epoch || !reflect.DeepEqual(back.Zones, m.Zones) ||
		!reflect.DeepEqual(back.Replicated, m.Replicated) {
		t.Fatalf("wire round trip changed the map:\n got %+v\nwant %+v", back, m)
	}
	if back.Bounds != m.Bounds {
		t.Fatalf("bounds not rederived: got %+v, want %+v", back.Bounds, m.Bounds)
	}
	for x := 0.0; x <= 300; x += 11 {
		for y := 0.0; y <= 200; y += 11 {
			p := geom.Point{X: x, Y: y}
			if back.OwnerAt(p) != m.OwnerAt(p) {
				t.Fatalf("ownership diverged after round trip at %+v", p)
			}
		}
	}
}

func TestGridMapRejectsDegenerate(t *testing.T) {
	if _, err := NewGridMap(testBounds(), 0, 1, []string{"a:1"}, nil); err == nil {
		t.Fatal("0-column grid accepted")
	}
	if _, err := NewGridMap(testBounds(), 1, 1, nil, nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := NewGridMap(geom.Rect{}, 1, 1, []string{"a:1"}, nil); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
}
