package index

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/rtree"
	"github.com/mostdb/most/internal/temporal"
)

// spanStrip is one indexed (x, y, time) box: a time-bounded piece of one
// object's planar trajectory, stored as the R-tree value for inline
// verification.
type spanStrip struct {
	id   most.ObjectID
	span motion.Span
}

type motionRecord struct {
	strip spanStrip
	rect  rtree.Rect
}

// MotionIndex indexes objects moving in the XY plane over a finite time
// horizon, per §4: "for an object moving in 2-dimensional space, the above
// scheme can be mimicked using an index of 3-dimensional space, with the
// third dimension being, obviously, time."  Each linear span of an object's
// position is sliced into strips contributing one (x, y, t) box each.
//
// MotionIndex is safe for concurrent use: probes take a read lock and run
// in parallel; mutators take the write lock.
type MotionIndex struct {
	mu      sync.RWMutex
	base    temporal.Tick
	horizon temporal.Tick
	slice   float64
	tree    *rtree.Tree[spanStrip]
	objects map[most.ObjectID][]motionRecord
}

// NewMotionIndex returns an empty motion index covering [base, base+T).
func NewMotionIndex(base, T temporal.Tick) *MotionIndex {
	if T <= 0 {
		panic("index: horizon must be positive")
	}
	slice := float64(T) / 64
	if slice < 1 {
		slice = 1
	}
	return &MotionIndex{
		base:    base,
		horizon: T,
		slice:   slice,
		tree:    rtree.New[spanStrip](3, 16),
		objects: map[most.ObjectID][]motionRecord{},
	}
}

// End returns the exclusive end of the indexed window.
func (ix *MotionIndex) End() temporal.Tick {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.end()
}

// end is End without the lock, for methods already holding it.
func (ix *MotionIndex) end() temporal.Tick { return ix.base.Add(ix.horizon) }

// Len returns the number of indexed objects.
func (ix *MotionIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.objects)
}

// NeedsRebuild reports whether the window has been outrun.
func (ix *MotionIndex) NeedsRebuild(t temporal.Tick) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return t >= ix.end()
}

// Insert indexes an object's position over the window.
func (ix *MotionIndex) Insert(id most.ObjectID, pos motion.Position) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.objects[id]; dup {
		return fmt.Errorf("index: object %s already indexed", id)
	}
	ix.insertFrom(id, pos, float64(ix.base))
	return nil
}

// makeRecords builds the strip records of one trajectory without touching
// the tree.  Callers hold the lock (either mode).
func (ix *MotionIndex) makeRecords(id most.ObjectID, pos motion.Position, from float64) []motionRecord {
	spans := pos.MovingPointsOver(from, float64(ix.end()))
	var out []motionRecord
	for _, sp := range spans {
		t0 := sp.From
		for {
			t1 := t0 + ix.slice
			if t1 > sp.To {
				t1 = sp.To
			}
			piece := motion.Span{From: t0, To: t1, MP: sp.MP}
			out = append(out, motionRecord{strip: spanStrip{id: id, span: piece}, rect: spanRect(piece)})
			if t1 >= sp.To {
				break
			}
			t0 = t1
		}
	}
	return out
}

func spanRect(sp motion.Span) rtree.Rect {
	p0 := sp.MP.At(sp.From)
	p1 := sp.MP.At(sp.To)
	return rtree.Rect3(
		min(p0.X, p1.X), min(p0.Y, p1.Y), sp.From,
		max(p0.X, p1.X), max(p0.Y, p1.Y), sp.To,
	)
}

func (ix *MotionIndex) insertFrom(id most.ObjectID, pos motion.Position, from float64) {
	recs := ix.makeRecords(id, pos, from)
	for _, rec := range recs {
		ix.tree.Insert(rec.rect, rec.strip)
	}
	ix.objects[id] = append(ix.objects[id], recs...)
}

// Remove drops an object.
func (ix *MotionIndex) Remove(id most.ObjectID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	recs, ok := ix.objects[id]
	if !ok {
		return false
	}
	for _, rec := range recs {
		ix.tree.Delete(rec.rect, rec.strip)
	}
	delete(ix.objects, id)
	return true
}

// Update replaces the object's trajectory from time t on (a motion-vector
// update).
func (ix *MotionIndex) Update(id most.ObjectID, pos motion.Position, t temporal.Tick) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	recs, ok := ix.objects[id]
	if !ok {
		return fmt.Errorf("index: object %s not indexed", id)
	}
	at := float64(t)
	kept := recs[:0]
	for _, rec := range recs {
		if rec.strip.span.To <= at {
			kept = append(kept, rec)
			continue
		}
		ix.tree.Delete(rec.rect, rec.strip)
		if rec.strip.span.From < at {
			trunc := motion.Span{From: rec.strip.span.From, To: at, MP: rec.strip.span.MP}
			nrec := motionRecord{strip: spanStrip{id: id, span: trunc}, rect: spanRect(trunc)}
			ix.tree.Insert(nrec.rect, nrec.strip)
			kept = append(kept, nrec)
		}
	}
	ix.objects[id] = kept
	start := at
	if start < float64(ix.base) {
		start = float64(ix.base)
	}
	ix.insertFrom(id, pos, start)
	return nil
}

// CandidatesInRect returns the distinct ids whose trajectory boxes
// intersect the spatial rectangle during [t0, t1].
func (ix *MotionIndex) CandidatesInRect(r geom.Rect, t0, t1 float64) []most.ObjectID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	q := rtree.Rect3(r.Min.X, r.Min.Y, t0, r.Max.X, r.Max.Y, t1)
	seen := map[most.ObjectID]bool{}
	var out []most.ObjectID
	ix.tree.Search(q, func(_ rtree.Rect, s spanStrip) bool {
		if !seen[s.id] {
			seen[s.id] = true
			out = append(out, s.id)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InsidePolygonDuring answers "retrieve the objects that will be inside
// polygon P at some time in [t0, t1]": an index probe with the polygon's
// bounding box followed by the exact kinetic check on the hit strips.
func (ix *MotionIndex) InsidePolygonDuring(pg geom.Polygon, t0, t1 float64) []ContinuousAnswer {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	box := pg.Bounds()
	q := rtree.Rect3(box.Min.X, box.Min.Y, t0, box.Max.X, box.Max.Y, t1)
	hits := map[most.ObjectID]geom.RealSet{}
	ix.tree.Search(q, func(_ rtree.Rect, s spanStrip) bool {
		from, to := s.span.From, s.span.To
		if from < t0 {
			from = t0
		}
		if to > t1 {
			to = t1
		}
		if from > to {
			return true
		}
		in := geom.InsideTimes(s.span.MP, pg, from, to)
		if !in.IsEmpty() {
			hits[s.id] = hits[s.id].Union(in)
		}
		return true
	})
	ids := make([]most.ObjectID, 0, len(hits))
	for id := range hits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]ContinuousAnswer, 0, len(ids))
	for _, id := range ids {
		out = append(out, ContinuousAnswer{ID: id, Times: hits[id]})
	}
	return out
}

// Rebuild reconstructs the motion index for a new window, bulk-loading the
// R-tree (STR packing).
func (ix *MotionIndex) Rebuild(base temporal.Tick, positions map[most.ObjectID]motion.Position) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.base = base
	ix.objects = make(map[most.ObjectID][]motionRecord, len(positions))
	ids := make([]most.ObjectID, 0, len(positions))
	for id := range positions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var rects []rtree.Rect
	var vals []spanStrip
	for _, id := range ids {
		recs := ix.makeRecords(id, positions[id], float64(base))
		ix.objects[id] = recs
		for _, rec := range recs {
			rects = append(rects, rec.rect)
			vals = append(vals, rec.strip)
		}
	}
	ix.tree = rtree.New[spanStrip](3, 16)
	ix.tree.BulkLoad(rects, vals)
}
