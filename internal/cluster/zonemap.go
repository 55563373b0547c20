// Package cluster partitions the plane into rectangular zones and spreads
// them over a set of MOST server nodes.  Each node runs the ordinary
// internal/server engine over the slice of moving objects whose current
// position falls inside its zones; classes named in the zone map's
// Replicated list (small reference fleets, stationary points of interest)
// are instead kept in full on every node so join templates never cross the
// network.  A Router fans client traffic out: updates go to the owning
// node (a node refuses any op it does not own, naming the owner, and the
// Router re-sends there), queries scatter to every node and the per-zone
// answers merge by canonical-row union, and continuous queries are
// registered everywhere so their merged stream follows objects across
// zone crossings.
//
// Ownership moves with the objects.  After every mutating request a node
// scans what the request touched (everything, after a rebalance barrier)
// and hands off objects whose position has left its zones: the motion
// record travels to the neighbor as a version-fenced OpHandoff, the
// receiver's insert re-derives the in-flight continuous-query state from
// its own registered plans, and only a durable acknowledgement releases
// the sender's copy.  See ARCHITECTURE.md's "Cluster" section for the
// handoff state machine and the crash-recovery argument.
package cluster

import (
	"fmt"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/wire"
)

// ZoneMap is the cluster's ownership function: a set of disjoint
// rectangles covering Bounds, each assigned to one node address.  The map
// is static per epoch.
type ZoneMap struct {
	Epoch      uint64
	Bounds     geom.Rect
	Zones      []wire.Zone
	Replicated []string

	replicated map[string]bool
}

// NewGridMap tiles bounds into a gx x gy grid of zones and assigns them
// round-robin to addrs (so every node owns a balanced, spatially spread
// set even when len(addrs) does not divide gx*gy).  replicated names the
// classes kept in full on every node.
func NewGridMap(bounds geom.Rect, gx, gy int, addrs []string, replicated []string) (*ZoneMap, error) {
	if gx < 1 || gy < 1 {
		return nil, fmt.Errorf("cluster: grid must be at least 1x1 (got %dx%d)", gx, gy)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: a zone map needs at least one node address")
	}
	if !bounds.Valid() || bounds.Max.X <= bounds.Min.X || bounds.Max.Y <= bounds.Min.Y {
		return nil, fmt.Errorf("cluster: degenerate bounds %+v", bounds)
	}
	m := &ZoneMap{Epoch: 1, Bounds: bounds, Replicated: append([]string(nil), replicated...)}
	w := (bounds.Max.X - bounds.Min.X) / float64(gx)
	h := (bounds.Max.Y - bounds.Min.Y) / float64(gy)
	for j := 0; j < gy; j++ {
		for i := 0; i < gx; i++ {
			id := j*gx + i
			m.Zones = append(m.Zones, wire.Zone{
				ID:   id,
				MinX: bounds.Min.X + float64(i)*w,
				MinY: bounds.Min.Y + float64(j)*h,
				MaxX: bounds.Min.X + float64(i+1)*w,
				MaxY: bounds.Min.Y + float64(j+1)*h,
				Addr: addrs[id%len(addrs)],
			})
		}
	}
	m.index()
	return m, nil
}

// NewMap builds a zone map from explicit zones — the hand-wired analogue
// of NewGridMap for deployments that assign rectangles per process
// (cmd/mostserver -zone/-peers).  Zone IDs are assigned in slice order.
func NewMap(zones []wire.Zone, replicated []string) (*ZoneMap, error) {
	if len(zones) == 0 {
		return nil, fmt.Errorf("cluster: a zone map needs at least one zone")
	}
	m := &ZoneMap{Epoch: 1, Replicated: append([]string(nil), replicated...)}
	for i, z := range zones {
		if z.MaxX <= z.MinX || z.MaxY <= z.MinY {
			return nil, fmt.Errorf("cluster: degenerate zone %d: [%g,%g]x[%g,%g]", i, z.MinX, z.MaxX, z.MinY, z.MaxY)
		}
		if z.Addr == "" {
			return nil, fmt.Errorf("cluster: zone %d has no owner address", i)
		}
		z.ID = i
		m.Zones = append(m.Zones, z)
		r := geom.Rect{Min: geom.Point{X: z.MinX, Y: z.MinY}, Max: geom.Point{X: z.MaxX, Y: z.MaxY}}
		if i == 0 {
			m.Bounds = r
		} else {
			m.Bounds = m.Bounds.Expand(r.Min).Expand(r.Max)
		}
	}
	m.index()
	return m, nil
}

// FromWire rebuilds a ZoneMap from its wire form (a client fetched it
// with OpZoneMap).
func FromWire(resp *wire.ZoneMapResp) *ZoneMap {
	m := &ZoneMap{
		Epoch:      resp.Epoch,
		Zones:      append([]wire.Zone(nil), resp.Zones...),
		Replicated: append([]string(nil), resp.Replicated...),
	}
	for i, z := range m.Zones {
		r := geom.Rect{Min: geom.Point{X: z.MinX, Y: z.MinY}, Max: geom.Point{X: z.MaxX, Y: z.MaxY}}
		if i == 0 {
			m.Bounds = r
		} else {
			m.Bounds = m.Bounds.Expand(r.Min).Expand(r.Max)
		}
	}
	m.index()
	return m
}

func (m *ZoneMap) index() {
	m.replicated = make(map[string]bool, len(m.Replicated))
	for _, c := range m.Replicated {
		m.replicated[c] = true
	}
}

// Wire returns the map in its OpZoneMap response form.
func (m *ZoneMap) Wire() *wire.ZoneMapResp {
	return &wire.ZoneMapResp{
		Epoch:      m.Epoch,
		Zones:      append([]wire.Zone(nil), m.Zones...),
		Replicated: append([]string(nil), m.Replicated...),
	}
}

// IsReplicated reports whether class is kept in full on every node.
func (m *ZoneMap) IsReplicated(class string) bool { return m.replicated[class] }

// ZoneAt returns the zone owning point p.  Zones are half-open on their
// max edges (a point on the seam belongs to the next zone over) so the
// ownership function is single-valued; points outside every zone clamp to
// the nearest one by center distance, so objects that drift off the map
// edge always keep exactly one owner.
func (m *ZoneMap) ZoneAt(p geom.Point) *wire.Zone {
	var best *wire.Zone
	bestDist := 0.0
	for i := range m.Zones {
		z := &m.Zones[i]
		if p.X >= z.MinX && p.Y >= z.MinY &&
			(p.X < z.MaxX || (p.X == z.MaxX && z.MaxX == m.Bounds.Max.X)) &&
			(p.Y < z.MaxY || (p.Y == z.MaxY && z.MaxY == m.Bounds.Max.Y)) {
			return z
		}
		cx, cy := (z.MinX+z.MaxX)/2, (z.MinY+z.MaxY)/2
		d := (p.X-cx)*(p.X-cx) + (p.Y-cy)*(p.Y-cy)
		if best == nil || d < bestDist {
			best, bestDist = z, d
		}
	}
	return best
}

// OwnerAt returns the address of the node owning point p ("" only on an
// empty map).
func (m *ZoneMap) OwnerAt(p geom.Point) string {
	if z := m.ZoneAt(p); z != nil {
		return z.Addr
	}
	return ""
}

// ZonesOf returns the zones assigned to addr.
func (m *ZoneMap) ZonesOf(addr string) []wire.Zone {
	var out []wire.Zone
	for _, z := range m.Zones {
		if z.Addr == addr {
			out = append(out, z)
		}
	}
	return out
}
