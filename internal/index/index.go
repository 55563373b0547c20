// Package index implements the paper's method of indexing dynamic
// attributes (§4): "the method plots all the functions representing the way
// a dynamic attribute A changes with time.  Thus, the x-axis represents
// time, and the y-axis represents the value of A. ... We use a spatial
// index for each dynamic attribute A.  Spatial indexes use a hierarchical
// recursive decomposition of space, usually into rectangles; the id of each
// object o is stored in the records representing the rectangles crossed by
// the A.function of o."
//
// The spatial index is the from-scratch R-tree in internal/rtree.  Each
// object's piecewise-linear trajectory is sliced into strips of bounded
// time width — the rectangles its function line crosses — before insertion,
// so boxes stay tight and a probe touches only the strips near the query
// rectangle.  The index is bounded in time ("spatial indexing is limited to
// finite space ... the index needs to be reconstructed every T time
// units"); Rebuild performs the periodic reconstruction by bulk-loading.
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

// strip is one indexed rectangle: a time-bounded piece of one object's
// trajectory.  It is the R-tree's stored value, so a probe can verify the
// predicate inline on the hit without any auxiliary lookup.
type strip struct {
	id  most.ObjectID
	seg motion.Segment
}

// segRecord pairs a strip with its R-tree box, for updates and deletes.
type segRecord struct {
	strip strip
	rect  rtree.Rect
}

// AttrIndex indexes one dynamic attribute over the time horizon
// [Base, Base+T).  It is safe for concurrent use: probes take a read lock
// and run in parallel with each other; mutators take the write lock.
type AttrIndex struct {
	mu      sync.RWMutex
	base    temporal.Tick
	horizon temporal.Tick
	slice   float64 // max time width of one indexed rectangle
	tree    *rtree.Tree[strip]
	objects map[most.ObjectID][]segRecord
}

// NewAttrIndex returns an empty index covering [base, base+T), with the
// strip width defaulting to T/64.
func NewAttrIndex(base, T temporal.Tick) *AttrIndex {
	return NewAttrIndexSlice(base, T, float64(T)/64)
}

// NewAttrIndexSlice returns an empty index covering [base, base+T) with an
// explicit strip width (clamped to at least one tick).  Narrower strips
// give tighter rectangles (faster probes) at the cost of more entries;
// experiment E12 studies the trade-off together with the choice of T.
func NewAttrIndexSlice(base, T temporal.Tick, slice float64) *AttrIndex {
	if T <= 0 {
		panic("index: horizon must be positive")
	}
	if slice < 1 {
		slice = 1
	}
	return &AttrIndex{
		base:    base,
		horizon: T,
		slice:   slice,
		tree:    rtree.New[strip](2, 16),
		objects: map[most.ObjectID][]segRecord{},
	}
}

// Base returns the start of the indexed time window.
func (ix *AttrIndex) Base() temporal.Tick {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.base
}

// End returns the exclusive end of the indexed time window (Base + T).
func (ix *AttrIndex) End() temporal.Tick {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.end()
}

// end is End without the lock, for use by methods already holding it
// (RWMutex is not reentrant).
func (ix *AttrIndex) end() temporal.Tick { return ix.base.Add(ix.horizon) }

// Len returns the number of indexed objects.
func (ix *AttrIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.objects)
}

// TreeHeight returns the underlying R-tree's height; experiments use it to
// demonstrate logarithmic growth.
func (ix *AttrIndex) TreeHeight() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tree.Height()
}

// NeedsRebuild reports whether t has run past the indexed window, i.e. the
// periodic reconstruction is due.
func (ix *AttrIndex) NeedsRebuild(t temporal.Tick) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return t >= ix.end()
}

// Insert indexes the object's attribute trajectory over the window.
func (ix *AttrIndex) Insert(id most.ObjectID, attr motion.DynamicAttr) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.objects[id]; dup {
		return fmt.Errorf("index: object %s already indexed", id)
	}
	ix.insertFrom(id, attr, float64(ix.base))
	return nil
}

// makeRecords builds the strip records of one trajectory without touching
// the tree.  Callers hold the lock (either mode).
func (ix *AttrIndex) makeRecords(id most.ObjectID, attr motion.DynamicAttr, from float64) []segRecord {
	segs := attr.Trajectory(from, float64(ix.end()))
	var out []segRecord
	for _, s := range segs {
		for _, piece := range sliceSegment(s, ix.slice) {
			tMin, tMax, vMin, vMax := piece.Bounds()
			out = append(out, segRecord{
				strip: strip{id: id, seg: piece},
				rect:  rtree.Rect2(tMin, vMin, tMax, vMax),
			})
		}
	}
	return out
}

func (ix *AttrIndex) insertFrom(id most.ObjectID, attr motion.DynamicAttr, from float64) {
	recs := ix.makeRecords(id, attr, from)
	for _, rec := range recs {
		ix.tree.Insert(rec.rect, rec.strip)
	}
	ix.objects[id] = append(ix.objects[id], recs...)
}

// sliceSegment cuts a trajectory segment into strips at most width wide.
func sliceSegment(s motion.Segment, width float64) []motion.Segment {
	if s.T1-s.T0 <= width {
		return []motion.Segment{s}
	}
	var out []motion.Segment
	for t0 := s.T0; t0 < s.T1; t0 += width {
		t1 := t0 + width
		if t1 > s.T1 {
			t1 = s.T1
		}
		out = append(out, s.Sub(t0, t1))
	}
	return out
}

// Remove drops all of the object's segments.
func (ix *AttrIndex) Remove(id most.ObjectID) bool {
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

// Update handles an explicit update of o.A at time t: "o is removed from
// the records representing rectangles crossed by the old function-line, and
// it is added to the records representing rectangles crossed by the new
// function-line" — only the part of the trajectory at or after t changes.
func (ix *AttrIndex) Update(id most.ObjectID, attr motion.DynamicAttr, t temporal.Tick) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	recs, ok := ix.objects[id]
	if !ok {
		return fmt.Errorf("index: object %s not indexed", id)
	}
	at := float64(t)
	kept := recs[:0]
	for _, rec := range recs {
		if rec.strip.seg.T1 <= at {
			kept = append(kept, rec)
			continue
		}
		ix.tree.Delete(rec.rect, rec.strip)
		if rec.strip.seg.T0 < at {
			// Truncate the segment that spans the update instant.
			trunc := rec.strip.seg.Sub(rec.strip.seg.T0, at)
			tMin, tMax, vMin, vMax := trunc.Bounds()
			nrec := segRecord{strip: strip{id: id, seg: trunc}, rect: rtree.Rect2(tMin, vMin, tMax, vMax)}
			ix.tree.Insert(nrec.rect, nrec.strip)
			kept = append(kept, nrec)
		}
	}
	ix.objects[id] = kept
	start := at
	if start < float64(ix.base) {
		start = float64(ix.base)
	}
	ix.insertFrom(id, attr, start)
	return nil
}

// Candidates returns the distinct object ids whose trajectory rectangles
// intersect the query rectangle [t0,t1] x [lo,hi] — the index probe of §4,
// before the exact per-object check.
func (ix *AttrIndex) Candidates(lo, hi float64, t0, t1 float64) []most.ObjectID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := map[most.ObjectID]bool{}
	var out []most.ObjectID
	ix.tree.Search(rtree.Rect2(t0, lo, t1, hi), func(_ rtree.Rect, s strip) bool {
		if !seen[s.id] {
			seen[s.id] = true
			out = append(out, s.id)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstantQuery answers "retrieve the objects for which currently
// lo <= A <= hi" at time t: probe the index with the rectangle
// [lo,hi] x [t,t], then "for each object id in these records we check
// whether currently lo < A < hi" — directly on the hit strips.
func (ix *AttrIndex) InstantQuery(lo, hi float64, t temporal.Tick) []most.ObjectID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	at := float64(t)
	var out []most.ObjectID
	var dup map[most.ObjectID]bool
	ix.tree.Search(rtree.Rect2(at, lo, at, hi), func(_ rtree.Rect, s strip) bool {
		if at < s.seg.T0 || at > s.seg.T1 {
			return true
		}
		if v := s.seg.ValueAt(at); v < lo || v > hi {
			return true
		}
		// A tick on a strip boundary can hit two strips of one object.
		if dup[s.id] {
			return true
		}
		if dup == nil {
			dup = map[most.ObjectID]bool{}
		}
		dup[s.id] = true
		out = append(out, s.id)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContinuousAnswer is one tuple of a continuous range query's answer: the
// object and the times at which it satisfies the range.
type ContinuousAnswer struct {
	ID    most.ObjectID
	Times geom.RealSet
}

// ContinuousQuery answers the continuous form of the range query entered at
// time t: probe with the rectangle [lo,hi] x [t, T], then construct the
// answer "by examining each object id in these records, and determining the
// time intervals when lo < o.A < hi" (§4).
func (ix *AttrIndex) ContinuousQuery(lo, hi float64, t temporal.Tick) []ContinuousAnswer {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	from := float64(t)
	to := float64(ix.end())
	hits := map[most.ObjectID][]geom.RealInterval{}
	ix.tree.Search(rtree.Rect2(from, lo, to, hi), func(_ rtree.Rect, s strip) bool {
		if set, ok := segmentRange(s.seg, lo, hi, from, to); ok {
			hits[s.id] = append(hits[s.id], set.Intervals()...)
		}
		return true
	})
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

// segmentRange solves lo <= seg(t) <= hi over [max(seg.T0,from),
// min(seg.T1,to)], exactly for linear and quadratic segments.
func segmentRange(seg motion.Segment, lo, hi, from, to float64) (geom.RealSet, bool) {
	t0 := seg.T0
	if from > t0 {
		t0 = from
	}
	t1 := seg.T1
	if to < t1 {
		t1 = to
	}
	if t0 > t1 {
		return geom.RealSet{}, false
	}
	set := motion.SegRangeTimes(seg.Sub(t0, t1), lo, hi)
	return set, !set.IsEmpty()
}

// Rebuild reconstructs the index for a new window starting at base, from
// the supplied current attributes — the periodic reconstruction of §4.  The
// R-tree is bulk-loaded (STR packing), which is both faster and yields a
// better tree than incremental insertion.
func (ix *AttrIndex) Rebuild(base temporal.Tick, attrs map[most.ObjectID]motion.DynamicAttr) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.base = base
	ix.objects = make(map[most.ObjectID][]segRecord, len(attrs))
	ids := make([]most.ObjectID, 0, len(attrs))
	for id := range attrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var rects []rtree.Rect
	var vals []strip
	for _, id := range ids {
		recs := ix.makeRecords(id, attrs[id], float64(base))
		ix.objects[id] = recs
		for _, rec := range recs {
			rects = append(rects, rec.rect)
			vals = append(vals, rec.strip)
		}
	}
	ix.tree = rtree.New[strip](2, 16)
	ix.tree.BulkLoad(rects, vals)
}
