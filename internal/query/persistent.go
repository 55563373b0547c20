package query

import (
	"fmt"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// Persistent is a registered persistent query at anchor time t0: a
// sequence of instantaneous queries all on the history starting at t0,
// re-run whenever the database is updated (§2.3, Figure 1(c)).  Evaluating
// it "requires saving of information about the way the database is updated
// over time": the engine replays the database's update log into synthetic
// objects whose dynamic attributes encode the actual past trajectory from
// t0, concatenated with the current implicit future.
//
// This reproduces the paper's query R: "retrieve the objects whose speed in
// the direction of the X-axis doubles within 10 minutes" is empty as an
// instantaneous or continuous query (the future history has constant
// speed), but as a persistent query it fires once the logged history shows
// the doubling.
//
// It runs on the continuous queries' scheduler as a plan of its own that
// is never shared or skipped spatially, and is maintained like a
// continuous plan: an update to object o rewrites only o's trajectory, so
// on a deltable shape the plan synthesizes o's history alone and patches
// o's tuples with one pinned evaluation at the anchor.  Every evaluation
// is anchored at t0, so the plan never re-anchors, and a patch is exact
// whatever the formula's lookahead.
type Persistent struct {
	cq     *Continuous
	anchor temporal.Tick
}

// Persistent registers a persistent query anchored at the current time.
// The query holds the database's update log from its anchor on until it
// is cancelled (most.Database.HoldHistory).
func (e *Engine) Persistent(q *ftl.Query, opts Options) (*Persistent, error) {
	anchor, release := e.db.HoldHistory()
	replay := func(sp *obs.Span, ids []most.ObjectID) (*most.Snapshot, temporal.Tick, uint64) {
		hist := sp.Child("synthesize_history")
		h := e.db.History()
		objects := synthesizeHistory(h, anchor, anchor.Add(opts.horizon()), ids...)
		hist.Annotate("objects", int64(objects.Len()))
		hist.End()
		return objects, anchor, h.Current().Version()
	}
	h := &Continuous{}
	p := newPlan(e, fmt.Sprintf("persistent %p", h), ftl.NormalizeQuery(*q), opts, "query.persistent", source{read: replay, fixed: true}) // never shared
	p.release = release
	e.mu.Lock()
	if err := e.start(p, h); err != nil {
		return nil, err
	}
	return &Persistent{cq: h, anchor: anchor}, nil
}

// Anchor returns the time t0 the query is anchored at.
func (pq *Persistent) Anchor() temporal.Tick { return pq.anchor }

// Current returns the instantiations satisfying the query at the anchor
// state, as known from the history logged so far.  After a failed
// reevaluation it returns that round's error until a later round
// succeeds.
func (pq *Persistent) Current() ([]Row, error) { return pq.cq.Current(pq.anchor) }

// Subscribe registers a listener invoked with the new answer after each
// reevaluation that changes the answer relation.  On a cancelled handle
// it reports errUnregistered, consistent with Current, and the listener
// is dropped.
func (pq *Persistent) Subscribe(fn func([]Row)) error {
	return pq.cq.SubscribeInstalls(func(in Install) { fn(rowsAt(in.Rel, pq.anchor)) })
}

// Cancel unregisters the query and releases its hold on the update log.
func (pq *Persistent) Cancel() { pq.cq.Cancel() }

// synthesizeHistory builds, for every object currently in the database —
// or, given ids, for those objects alone — a synthetic revision whose
// dynamic attributes trace the object's *actual* trajectory from t0
// (replayed from the update log) followed by the current implicit future
// up to horizonEnd.  An id the current version does not hold (a deleted
// object) is left out.  Static attributes take their current values (a
// static attribute has a single value per revision; queries over past
// static values should bind them with the assignment quantifier at entry
// time instead).  It makes one pass over the retained log, and an
// object's revision depends on that object's own updates only, so
// synthesizing {o} alone gives the revision a whole-history synthesis
// gives o.
func synthesizeHistory(h most.History, t0, horizonEnd temporal.Tick, ids ...most.ObjectID) *most.Snapshot {
	current := h.Current()
	var objs []*most.Object
	var want map[most.ObjectID]bool
	if ids == nil {
		objs = current.Objects("")
	} else {
		want = make(map[most.ObjectID]bool, len(ids))
		for _, id := range ids {
			want[id] = true
			if o, ok := current.Get(id); ok {
				objs = append(objs, o)
			}
		}
	}
	byObj := map[most.ObjectID][]most.Update{}
	for _, u := range h.Updates() {
		if want == nil || want[u.Object] {
			byObj[u.Object] = append(byObj[u.Object], u)
		}
	}
	out := make([]*most.Object, 0, len(objs))
	for _, cur := range objs {
		if synth, ok := synthesizeObject(h, cur, byObj[cur.ID()], t0, horizonEnd); ok {
			out = append(out, synth)
		}
	}
	return most.NewSnapshot(h.Now(), out...)
}

// synthesizeObject builds the synthetic revision of one current object
// from its retained updates ups (see synthesizeHistory).  It reports false
// when the object has no revision in [t0, now].
func synthesizeObject(h most.History, cur *most.Object, ups []most.Update, t0, horizonEnd temporal.Tick) (*most.Object, bool) {
	id := cur.ID()
	// Collect this object's revision changepoints in [t0, now].
	type rev struct {
		tick temporal.Tick
		obj  *most.Object
	}
	revs := []rev{}
	if o, ok := h.RevisionIn(id, ups, t0); ok {
		revs = append(revs, rev{tick: t0, obj: o})
	}
	for _, u := range ups {
		if u.Tick <= t0 || u.After == nil {
			continue
		}
		if u.Tick > h.Now() {
			break
		}
		revs = append(revs, rev{tick: u.Tick, obj: u.After})
	}
	if len(revs) == 0 {
		return nil, false
	}
	synth := cur
	for _, def := range cur.Class().Attrs() {
		if def.Kind != most.Dynamic {
			continue
		}
		var segs []motion.Segment
		for i, r := range revs {
			from := float64(r.tick)
			to := float64(horizonEnd)
			if i+1 < len(revs) {
				to = float64(revs[i+1].tick)
			}
			if to <= from {
				continue
			}
			dyn, err := r.obj.Dynamic(def.Name)
			if err != nil {
				continue
			}
			segs = append(segs, dyn.Trajectory(from, to)...)
		}
		attr, ok := segsToDynamicAttr(segs, t0)
		if !ok {
			continue
		}
		if next, err := synth.WithDynamic(def.Name, attr); err == nil {
			synth = next
		}
	}
	return synth, true
}

// segsToDynamicAttr folds absolute-time segments into a single DynamicAttr
// anchored at t0.  Value discontinuities between consecutive segments (an
// explicit teleport) are encoded as a sub-tick ramp, which is invisible at
// tick resolution.
func segsToDynamicAttr(segs []motion.Segment, t0 temporal.Tick) (motion.DynamicAttr, bool) {
	if len(segs) == 0 {
		return motion.DynamicAttr{}, false
	}
	const rampWidth = 1e-6
	base := float64(t0)
	v0 := segs[0].V0
	var pieces []motion.Piece
	cur := v0
	at := segs[0].T0
	for _, s := range segs {
		if s.T1 <= s.T0 {
			continue
		}
		if s.T0 > at+1e-12 {
			// Gap: hold the value flat across it.
			pieces = append(pieces, motion.Piece{Start: at - base, Slope: 0})
			at = s.T0
		}
		if d := s.V0 - cur; d > 1e-9 || d < -1e-9 {
			// Discontinuity: steep ramp just before this segment.
			pieces = append(pieces, motion.Piece{Start: (s.T0 - rampWidth) - base, Slope: d / rampWidth})
		}
		pieces = append(pieces, motion.Piece{Start: s.T0 - base, Slope: s.Slope, Accel: s.Accel})
		cur = s.ValueAt(s.T1)
		at = s.T1
	}
	// Deduplicate non-increasing starts (zero-width artifacts).
	clean := pieces[:0]
	for _, p := range pieces {
		if p.Start < 0 {
			p.Start = 0
		}
		if n := len(clean); n > 0 && p.Start <= clean[n-1].Start+1e-12 {
			clean[n-1] = motion.Piece{Start: clean[n-1].Start, Slope: p.Slope, Accel: p.Accel}
			continue
		}
		clean = append(clean, p)
	}
	f, err := motion.NewFunc(clean...)
	if err != nil {
		return motion.DynamicAttr{}, false
	}
	return motion.DynamicAttr{Value: v0, UpdateTime: t0, Function: f}, true
}
