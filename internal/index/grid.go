package index

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// GridIndex is an alternative mechanism for indexing dynamic attributes: a
// uniform grid over the (time, value) plane instead of an R-tree.  The
// paper's §7 lists "experimentally compare various mechanisms for indexing
// dynamic attributes" as future work; experiment E11 runs that comparison
// (R-tree vs grid vs scan).
//
// The grid covers time [Base, Base+T) and values [VMin, VMax); each cell
// stores the strips of the trajectories crossing it — a direct reading of
// §4's "hierarchical recursive decomposition of space, usually into
// rectangles", with a single-level decomposition.  Values escaping the
// covered range are clamped into the boundary rows, so answers remain
// correct (boundary cells just collect more strips).
//
// GridIndex is safe for concurrent use: probes take a read lock and run in
// parallel; mutators take the write lock.
type GridIndex struct {
	mu      sync.RWMutex
	base    temporal.Tick
	horizon temporal.Tick
	vMin    float64
	vMax    float64
	cols    int // time cells
	rows    int // value cells
	cells   [][]strip
	objects map[most.ObjectID][]gridRecord
}

type gridRecord struct {
	seg   motion.Segment
	cells []int // cell ids holding this strip
}

// NewGridIndex returns a grid index covering time [base, base+T) and
// values [vMin, vMax), with the given resolution (cells per axis).
func NewGridIndex(base, T temporal.Tick, vMin, vMax float64, cols, rows int) *GridIndex {
	if T <= 0 || vMax <= vMin || cols < 1 || rows < 1 {
		panic("index: bad grid parameters")
	}
	return &GridIndex{
		base:    base,
		horizon: T,
		vMin:    vMin,
		vMax:    vMax,
		cols:    cols,
		rows:    rows,
		cells:   make([][]strip, cols*rows),
		objects: map[most.ObjectID][]gridRecord{},
	}
}

// End returns the exclusive end of the indexed window.
func (g *GridIndex) End() temporal.Tick {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.end()
}

// end is End without the lock, for methods already holding it.
func (g *GridIndex) end() temporal.Tick { return g.base.Add(g.horizon) }

// Len returns the number of indexed objects.
func (g *GridIndex) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.objects)
}

// col maps a time to a column, clamped.
func (g *GridIndex) col(t float64) int {
	w := float64(g.horizon) / float64(g.cols)
	c := int(math.Floor((t - float64(g.base)) / w))
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	return c
}

// row maps a value to a row, clamped.
func (g *GridIndex) row(v float64) int {
	h := (g.vMax - g.vMin) / float64(g.rows)
	r := int(math.Floor((v - g.vMin) / h))
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return r
}

// Insert indexes the object's trajectory over the window.
func (g *GridIndex) Insert(id most.ObjectID, attr motion.DynamicAttr) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.objects[id]; dup {
		return fmt.Errorf("index: object %s already indexed", id)
	}
	g.insertFrom(id, attr, float64(g.base))
	return nil
}

func (g *GridIndex) insertFrom(id most.ObjectID, attr motion.DynamicAttr, from float64) {
	recs := g.objects[id]
	for _, seg := range attr.Trajectory(from, float64(g.end())) {
		// Walk the columns the segment spans; within each column the value
		// range gives the row span crossed.
		recs = append(recs, g.placeSegment(id, seg))
	}
	g.objects[id] = recs
}

// Remove drops an object.
func (g *GridIndex) Remove(id most.ObjectID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	recs, ok := g.objects[id]
	if !ok {
		return false
	}
	for _, rec := range recs {
		g.removeStrip(id, rec)
	}
	delete(g.objects, id)
	return true
}

func (g *GridIndex) removeStrip(id most.ObjectID, rec gridRecord) {
	for _, cell := range rec.cells {
		list := g.cells[cell]
		for i := range list {
			if list[i].id == id && list[i].seg == rec.seg {
				g.cells[cell] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
}

// Update replaces the trajectory from tick t on.
func (g *GridIndex) Update(id most.ObjectID, attr motion.DynamicAttr, t temporal.Tick) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	recs, ok := g.objects[id]
	if !ok {
		return fmt.Errorf("index: object %s not indexed", id)
	}
	at := float64(t)
	kept := make([]gridRecord, 0, len(recs))
	for _, rec := range recs {
		if rec.seg.T1 <= at {
			kept = append(kept, rec)
			continue
		}
		g.removeStrip(id, rec)
		if rec.seg.T0 < at {
			kept = append(kept, g.placeSegment(id, rec.seg.Sub(rec.seg.T0, at)))
		}
	}
	g.objects[id] = kept
	start := at
	if start < float64(g.base) {
		start = float64(g.base)
	}
	g.insertFrom(id, attr, start)
	return nil
}

// placeSegment registers one trajectory segment in every cell it crosses
// and returns its record.
func (g *GridIndex) placeSegment(id most.ObjectID, seg motion.Segment) gridRecord {
	colWidth := float64(g.horizon) / float64(g.cols)
	rec := gridRecord{seg: seg}
	s := strip{id: id, seg: seg}
	c0, c1 := g.col(seg.T0), g.col(seg.T1)
	for c := c0; c <= c1; c++ {
		t0 := math.Max(seg.T0, float64(g.base)+float64(c)*colWidth)
		t1 := math.Min(seg.T1, float64(g.base)+float64(c+1)*colWidth)
		if t0 > t1 {
			continue
		}
		_, _, v0, v1 := seg.Sub(t0, t1).Bounds()
		r0, r1 := g.row(v0), g.row(v1)
		for r := r0; r <= r1; r++ {
			cell := r*g.cols + c
			g.cells[cell] = append(g.cells[cell], s)
			rec.cells = append(rec.cells, cell)
		}
	}
	return rec
}

// InstantQuery answers "which objects currently have lo <= A <= hi" at
// tick t by examining the cells the query rectangle touches.
func (g *GridIndex) InstantQuery(lo, hi float64, t temporal.Tick) []most.ObjectID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	at := float64(t)
	c := g.col(at)
	r0, r1 := g.row(lo), g.row(hi)
	var out []most.ObjectID
	var dup map[most.ObjectID]bool
	for r := r0; r <= r1; r++ {
		for _, s := range g.cells[r*g.cols+c] {
			if at < s.seg.T0 || at > s.seg.T1 {
				continue
			}
			if v := s.seg.ValueAt(at); v < lo || v > hi {
				continue
			}
			if dup[s.id] {
				continue
			}
			if dup == nil {
				dup = map[most.ObjectID]bool{}
			}
			dup[s.id] = true
			out = append(out, s.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContinuousQuery returns, per object, the time intervals in [t, T) during
// which lo <= A <= hi.
func (g *GridIndex) ContinuousQuery(lo, hi float64, t temporal.Tick) []ContinuousAnswer {
	g.mu.RLock()
	defer g.mu.RUnlock()
	from := float64(t)
	to := float64(g.end())
	c0, c1 := g.col(from), g.col(to-1e-9)
	r0, r1 := g.row(lo), g.row(hi)
	type key struct {
		id  most.ObjectID
		seg motion.Segment
	}
	seen := map[key]bool{}
	hits := map[most.ObjectID][]geom.RealInterval{}
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, s := range g.cells[r*g.cols+c] {
				k := key{id: s.id, seg: s.seg}
				if seen[k] {
					continue
				}
				seen[k] = true
				if set, ok := segmentRange(s.seg, lo, hi, from, to); ok {
					hits[s.id] = append(hits[s.id], set.Intervals()...)
				}
			}
		}
	}
	ids := make([]most.ObjectID, 0, len(hits))
	for id := range hits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []ContinuousAnswer
	for _, id := range ids {
		set := geom.NewRealSet(hits[id]...)
		if !set.IsEmpty() {
			out = append(out, ContinuousAnswer{ID: id, Times: set})
		}
	}
	return out
}
