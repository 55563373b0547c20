package most

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/pmap"
	"github.com/mostdb/most/internal/temporal"
)

// This file is the grid index a spatial class keeps inside the database's
// versions: the 3-D (x, y, time) variant of the §4 dynamic-attribute index
// on a uniform grid (S16).  Time is cut into absolute slices of a fixed
// length, slice k covering [k*slice, (k+1)*slice].  Per slice of its
// coverage, an object is entered once, under the cell of its motion
// envelope over that slice: a loose grid whose cell side on each axis is
// the smallest power-of-two multiple of the base side that spans the
// envelope, so the envelope lies within the cell and its neighbour above.
// One entry per object and slice keeps an update at a few writes however
// far the object travels.  The entries live in a persistent map from cell
// code (slice, levels, cell coordinates packed in a uint64) to the sorted
// ids in the cell, written in the same commit as the object and published
// with the class's objects, so a snapshot's candidates always come from
// the same cut as its objects.
//
// The index only narrows: Snapshot.Candidates returns a superset of the
// objects whose trajectory can meet a rectangle during a window, and the
// evaluator still solves every candidate exactly.
//
// Three things are derived rather than configured:
//   - activation: a class is indexed from the first probe that finds it
//     unindexed (Database.indexFor); a class no query probes pays nothing,
//     and recovery never builds an index, which is never persisted;
//   - coverage: every object is covered from the tick it was written to the
//     end of the slice holding now + horizon, where horizon is the widest
//     window probed so far; a clock advance extends the objects whose
//     coverage runs out, found through an expiry bucket, and a wider probe
//     widens the horizon;
//   - shape: the slice length is the probing window at activation, and the
//     base cell side spreads the class's extent so that a cell holds a few
//     objects on average.

const (
	// gridEpsilon widens every envelope before it is placed, as the query
	// engine's relevance filter does, so an object computed a hair outside
	// a region's boundary is still a candidate.
	gridEpsilon = 1e-6
	// gridPerCell is the number of objects a base cell holds on average at
	// activation.
	gridPerCell = 16
	// gridLevels is the number of cell sizes per axis (base side times 1,
	// 2, ..., 2^(gridLevels-1)); an envelope wider than the largest goes to
	// the slice's wide cell, which every probe of the slice reads.
	gridLevels = 7
	// wideLevel is the level pair of a slice's wide cell.
	wideLevel = gridLevels
	// gridProbeCells caps the cells one probe reads per slice and level
	// pair; a wider probe is cheaper as a scan.
	gridProbeCells = 4096
	// gridCellLimit bounds cell coordinates, which a cell code holds in 21
	// bits: an envelope beyond it (a far outlier) goes to the wide cell.
	gridCellLimit = 1 << 19
	// gridMaxSlices bounds the slices an object's coverage spans, and so
	// the number of live slices, which a cell code holds modulo 2^16: a
	// probe reaching further past now scans instead of widening.
	gridMaxSlices = 64
	// gridRecent is the number of recently written objects that triggers
	// a merge (see gridIndex).
	gridRecent = 1024
)

// gridShape is an index's fixed geometry.
type gridShape struct {
	side  float64       // base cell side
	slice temporal.Tick // slice length in ticks
}

// gridView is a class's index as of one snapshot: the merged entries,
// cell code to bucket, and the log of objects written since the last merge
// with their cells (nil for a deleted object), in commit order; a logged
// object's merged entries, if any, are stale.  until is the last tick every object is covered through;
// levels has bit lx*gridLevels+ly set for every level pair that ever held
// a cell.  A zero view (side 0) is no index.
type gridView struct {
	gridShape
	cells  pmap.Map[uint64, *bucket]
	recent []written
	until  temporal.Tick
	levels uint64
}

// written is one logged write: an object's cells after it, nil when it
// deleted the object.
type written struct {
	id    ObjectID
	cells []cell
}

// bucket is the sorted ids of one cell.  A bucket a published version
// holds never changes; the writer changes in place only a bucket of the
// current generation, which no version has seen.
type bucket struct {
	gen uint64
	ids []ObjectID
}

// gridIndex is the writer's side of a class's index, used under the commit
// lock only.  An update only appends to the recent log; once it holds
// gridRecent writes they are merged into the cells in one go, so the
// buckets and tree paths a published version shares are copied once per
// merge rather than once per published version.  A published version
// holds a prefix of the log, which later appends never change: a merge
// starts a new log rather than reusing the array.
type gridIndex struct {
	gridShape
	horizon   temporal.Tick // coverage reaches now+horizon
	cells     *pmap.Txn[uint64, *bucket]
	root      pmap.Map[uint64, *bucket]
	recent    []written
	cellsDirt bool   // cells written since root was published
	gen       uint64 // buckets of this generation are unpublished
	levels    uint64
	objs      map[ObjectID]gridObject
	// expiry lists, per slice number, the objects whose coverage ends
	// there; an entry is stale once the object's coverage has moved on.
	expiry map[int64][]ObjectID
	obs    *atomic.Pointer[dbObs] // the database's instruments
}

// gridObject is the writer's record of one indexed object: the coverage
// of its current revision and the cells it has in the merged entries.
type gridObject struct {
	cov    coverage
	merged []cell
}

// coverage is the span of an object's entries: the tick its revision was
// indexed at and the slices [k0, k1) that hold them.
type coverage struct {
	from   temporal.Tick
	k0, k1 int64
}

// cell is one box of the loose grid: slice k, cell (x, y) at levels
// (lx, ly), whose sides are the base side times 2^lx and 2^ly.
type cell struct {
	k      int64
	lx, ly uint8
	x, y   int32
}

// sliceOf returns the number of the slice holding tick t.
func (g gridShape) sliceOf(t temporal.Tick) int64 {
	k := int64(t) / int64(g.slice)
	if int64(t)%int64(g.slice) < 0 {
		k--
	}
	return k
}

// level returns the smallest level whose cell side spans extent, or
// gridLevels when none does.
func (g gridShape) level(extent float64) uint8 {
	l := uint8(0)
	for side := g.side; side < extent && l < gridLevels; side *= 2 {
		l++
	}
	return l
}

// cellOf returns the index of the level-l cell holding coordinate v; ok is
// false past gridCellLimit.
func (g gridShape) cellOf(v float64, l uint8) (int32, bool) {
	c := math.Floor(v / (g.side * float64(uint(1)<<l)))
	if !(c >= -gridCellLimit && c <= gridCellLimit) { // NaN-safe
		return 0, false
	}
	return int32(c), true
}

// place returns the cell of the closed box [x0, x1] x [y0, y1] in slice k.
func (g gridShape) place(k int64, x0, x1, y0, y1 float64) cell {
	wide := cell{k: k, lx: wideLevel, ly: wideLevel}
	lx, ly := g.level(x1-x0), g.level(y1-y0)
	if lx >= gridLevels || ly >= gridLevels {
		return wide
	}
	cx, okx := g.cellOf(x0, lx)
	cy, oky := g.cellOf(y0, ly)
	if !okx || !oky {
		return wide
	}
	return cell{k: k, lx: lx, ly: ly, x: cx, y: cy}
}

// code packs cell c into its key: from the top, the slice number modulo
// 2^16, the two levels (3 bits each) and the two coordinates (21 bits
// each, offset binary), so a column of cells at one level pair is one key
// range.
func (c cell) code() uint64 {
	return uint64(uint16(c.k))<<48 | uint64(c.lx)<<45 | uint64(c.ly)<<42 |
		uint64(uint32(c.x+1<<20)&(1<<21-1))<<21 | uint64(uint32(c.y+1<<20)&(1<<21-1))
}

// newGridIndex builds the index of the objects in objs at tick now,
// covering windows up to horizon ticks ahead.
func newGridIndex(objs pmap.Map[string, *Object], now, horizon temporal.Tick, ob *atomic.Pointer[dbObs]) *gridIndex {
	horizon = max(horizon, 1)
	g := &gridIndex{
		gridShape: gridShape{slice: horizon},
		horizon:   horizon,
		cells:     pmap.Map[uint64, *bucket]{}.Edit(),
		objs:      make(map[ObjectID]gridObject, objs.Len()),
		expiry:    map[int64][]ObjectID{},
		obs:       ob,
	}
	// The base side spreads the extent of the class's positions over the
	// window so that a base cell holds about gridPerCell objects.
	first := true
	var ext [4]float64 // minX, minY, maxX, maxY
	from, to := float64(now), float64(now.Add(horizon))
	objs.Ascend(func(_ string, o *Object) bool {
		minX, maxX := o.pos.X.Range(from, to)
		minY, maxY := o.pos.Y.Range(from, to)
		if first {
			ext, first = [4]float64{minX, minY, maxX, maxY}, false
		} else {
			ext = [4]float64{min(ext[0], minX), min(ext[1], minY), max(ext[2], maxX), max(ext[3], maxY)}
		}
		return true
	})
	w, h := ext[2]-ext[0], ext[3]-ext[1]
	g.side = math.Sqrt(w * h * gridPerCell / float64(max(objs.Len(), 1)))
	if !(g.side > 0) || math.IsInf(g.side, 0) {
		g.side = max(w, h) / gridPerCell
	}
	if !(g.side > 0) || math.IsInf(g.side, 0) {
		g.side = 1
	}
	c := g.coverAt(now)
	objs.Ascend(func(_ string, o *Object) bool {
		g.cover(o.id, c)
		g.setMerged(o.id, g.cellsOf(nil, o.pos, c))
		return true
	})
	return g
}

// coverAt is the coverage of a revision written at tick now.
func (g *gridIndex) coverAt(now temporal.Tick) coverage {
	return coverage{from: now, k0: g.sliceOf(now), k1: g.sliceOf(now.Add(g.horizon)) + 1}
}

// cover records c as object id's coverage.  An object whose coverage
// already ended in the same slice is already in that expiry bucket.
func (g *gridIndex) cover(id ObjectID, c coverage) {
	o, ok := g.objs[id]
	if !ok || o.cov.k1 != c.k1 {
		g.expiry[c.k1] = append(g.expiry[c.k1], id)
	}
	o.cov = c
	g.objs[id] = o
}

// cellsOf appends the cells of an object at pos with coverage c, one per
// slice, in slice order, and marks their level pairs used.
func (g *gridIndex) cellsOf(out []cell, pos motion.Position, c coverage) []cell {
	for k := c.k0; k < c.k1; k++ {
		t0 := max(float64(c.from), float64(k)*float64(g.slice))
		t1 := float64(k+1) * float64(g.slice)
		minX, maxX := pos.X.Range(t0, t1)
		minY, maxY := pos.Y.Range(t0, t1)
		cl := g.place(k, minX-gridEpsilon, maxX+gridEpsilon, minY-gridEpsilon, maxY+gridEpsilon)
		if cl.lx != wideLevel {
			g.levels |= 1 << (uint(cl.lx)*gridLevels + uint(cl.ly))
		}
		out = append(out, cl)
	}
	return out
}

// apply indexes one committed update at tick now, into the recent log.
// Updates that leave the position alone write nothing.
func (g *gridIndex) apply(u Update, now temporal.Tick) {
	if u.Kind == UpdateStatic || u.Kind == UpdateDynamic && !isPositionAttr(u.Attr) {
		return
	}
	var cells []cell
	if u.After != nil {
		c := g.coverAt(now)
		g.cover(u.Object, c)
		cells = g.cellsOf(nil, u.After.pos, c)
	}
	g.recent = append(g.recent, written{u.Object, cells})
	g.obs.Load().indexWrites(1)
	if len(g.recent) >= gridRecent {
		g.merge()
	}
}

// merge moves the logged objects' last cells into the merged entries
// and starts a new log.
func (g *gridIndex) merge() {
	seen := make(map[ObjectID]bool, len(g.recent))
	for i := len(g.recent) - 1; i >= 0; i-- {
		w := g.recent[i]
		if seen[w.id] {
			continue
		}
		seen[w.id] = true
		g.setMerged(w.id, w.cells)
		if w.cells == nil {
			delete(g.objs, w.id)
		}
	}
	g.recent = nil
}

// setMerged replaces object id's merged entries by cells, writing only
// the slices whose cell changed.
func (g *gridIndex) setMerged(id ObjectID, cells []cell) {
	o := g.objs[id]
	olds, news := o.merged, cells
	writes := 0
	// Both lists hold one cell per slice in slice order.
	for len(olds) > 0 || len(news) > 0 {
		switch {
		case len(news) == 0 || len(olds) > 0 && olds[0].k < news[0].k:
			g.remove(olds[0], id)
			olds = olds[1:]
			writes++
		case len(olds) == 0 || news[0].k < olds[0].k:
			g.insert(news[0], id)
			news = news[1:]
			writes++
		default: // the same slice
			if olds[0] != news[0] {
				g.remove(olds[0], id)
				g.insert(news[0], id)
				writes += 2
			}
			olds, news = olds[1:], news[1:]
		}
	}
	o.merged = cells
	g.objs[id] = o
	if writes > 0 {
		g.cellsDirt = true
		g.obs.Load().indexWrites(writes)
	}
}

// insert enters id in cell c.
func (g *gridIndex) insert(c cell, id ObjectID) {
	code := c.code()
	b, ok := g.cells.Get(code)
	if !ok {
		g.cells.Set(code, &bucket{gen: g.gen, ids: []ObjectID{id}})
		return
	}
	i, _ := slices.BinarySearch(b.ids, id)
	if b.gen == g.gen {
		b.ids = slices.Insert(b.ids, i, id)
		return
	}
	ids := make([]ObjectID, 0, len(b.ids)+1)
	ids = append(append(append(ids, b.ids[:i]...), id), b.ids[i:]...)
	g.cells.Set(code, &bucket{gen: g.gen, ids: ids})
}

// remove takes id out of cell c.
func (g *gridIndex) remove(c cell, id ObjectID) {
	code := c.code()
	b, _ := g.cells.Get(code)
	i, _ := slices.BinarySearch(b.ids, id)
	switch {
	case len(b.ids) == 1:
		g.cells.Delete(code)
	case b.gen == g.gen:
		b.ids = slices.Delete(b.ids, i, i+1)
	default:
		ids := make([]ObjectID, 0, len(b.ids)-1)
		ids = append(append(ids, b.ids[:i]...), b.ids[i+1:]...)
		g.cells.Set(code, &bucket{gen: g.gen, ids: ids})
	}
}

// extend brings every object whose coverage ends before now+horizon up to
// it, taking objects through objs, the class's current revisions; the
// slices wholly before now are dropped on the way.  The expiry buckets
// make the work proportional to the objects extended, which are written
// straight into the merged entries after a merge.
func (g *gridIndex) extend(now temporal.Tick, objs *pmap.Txn[string, *Object]) {
	need := g.sliceOf(now.Add(g.horizon)) + 1
	var due []int64
	for k1 := range g.expiry {
		if k1 < need {
			due = append(due, k1)
		}
	}
	if len(due) == 0 {
		return
	}
	g.merge()
	slices.Sort(due) // deterministic write order
	n := 0
	for _, k1 := range due {
		for _, id := range g.expiry[k1] {
			st, ok := g.objs[id]
			if !ok || st.cov.k1 != k1 {
				continue // moved or deleted since
			}
			o, _ := objs.Get(string(id))
			c := coverage{from: st.cov.from, k0: max(st.cov.k0, g.sliceOf(now)), k1: need}
			g.cover(id, c)
			g.setMerged(id, g.cellsOf(nil, o.pos, c))
			n++
		}
		delete(g.expiry, k1)
	}
	g.obs.Load().indexExtensions(n)
}

// view returns the index as published at tick now.
func (g *gridIndex) view(now temporal.Tick) gridView {
	if g == nil {
		return gridView{}
	}
	if g.cellsDirt {
		g.root, g.cellsDirt = g.cells.Map(), false
		g.gen++
	}
	return gridView{gridShape: g.gridShape, cells: g.root, recent: g.recent, until: now.Add(g.horizon), levels: g.levels}
}

// probeRange is the cells at one level pair that can hold an object
// meeting the probed rectangle: an object placed in the level-l cell x
// has its envelope within cells x and x+1, so the cells run from the one
// below the rectangle's low edge to the one holding its high edge.
type probeRange struct {
	lx, ly         uint8
	x0, x1, y0, y1 int32
}

// candidates returns, sorted and distinct, the ids of the objects whose
// cells may meet rectangle r in any slice of window w; ok is false when r
// spans too many cells to be worth probing.
func (v *gridView) candidates(r geom.Rect, w temporal.Interval) ([]ObjectID, bool) {
	rx0, rx1 := r.Min.X-gridEpsilon, r.Max.X+gridEpsilon
	ry0, ry1 := r.Min.Y-gridEpsilon, r.Max.Y+gridEpsilon
	var ranges []probeRange
	for levels := v.levels; levels != 0; levels &= levels - 1 {
		i := bits.TrailingZeros64(levels)
		lx, ly := uint8(i/gridLevels), uint8(i%gridLevels)
		x0, okx0 := v.cellOf(rx0, lx)
		x1, okx1 := v.cellOf(rx1, lx)
		y0, oky0 := v.cellOf(ry0, ly)
		y1, oky1 := v.cellOf(ry1, ly)
		if !okx0 || !okx1 || !oky0 || !oky1 || (int64(x1)-int64(x0)+2)*(int64(y1)-int64(y0)+2) > gridProbeCells {
			return nil, false
		}
		ranges = append(ranges, probeRange{lx, ly, x0 - 1, x1, y0 - 1, y1})
	}
	k0, k1 := v.sliceOf(w.Start), v.sliceOf(w.End)
	var ids []ObjectID
	scan := func(from, to cell) {
		hi := to.code()
		v.cells.AscendFrom(from.code(), func(code uint64, b *bucket) bool {
			if code > hi {
				return false
			}
			ids = append(ids, b.ids...)
			return true
		})
	}
	for k := k0; k <= k1; k++ {
		for _, pr := range ranges {
			for x := pr.x0; x <= pr.x1; x++ {
				scan(cell{k: k, lx: pr.lx, ly: pr.ly, x: x, y: pr.y0}, cell{k: k, lx: pr.lx, ly: pr.ly, x: x, y: pr.y1})
			}
		}
		wide := cell{k: k, lx: wideLevel, ly: wideLevel}
		scan(wide, wide)
	}
	// The logged writes: their cells are tested directly, and stale ones,
	// like the logged objects' merged entries, only add candidates —
	// except for an object whose last write deleted it, which must not be
	// one.
	var gone map[ObjectID]bool
	for _, w := range v.recent {
		if w.cells == nil {
			if gone == nil {
				gone = map[ObjectID]bool{}
			}
			gone[w.id] = true
			continue
		}
		delete(gone, w.id)
		for _, c := range w.cells {
			if c.k >= k0 && c.k <= k1 && probeHit(ranges, c) {
				ids = append(ids, w.id)
				break
			}
		}
	}
	if len(gone) > 0 {
		ids = slices.DeleteFunc(ids, func(id ObjectID) bool { return gone[id] })
	}
	slices.Sort(ids)
	return slices.Compact(ids), true
}

// probeHit reports whether cell c lies in one of the probe's ranges (or
// is a wide cell, which every probe reads).
func probeHit(ranges []probeRange, c cell) bool {
	if c.lx == wideLevel {
		return true
	}
	for _, pr := range ranges {
		if pr.lx == c.lx && pr.ly == c.ly {
			return c.x >= pr.x0 && c.x <= pr.x1 && c.y >= pr.y0 && c.y <= pr.y1
		}
	}
	return false
}
