package query

import (
	"sync"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
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
type Persistent struct {
	id     int
	engine *Engine
	query  *ftl.Query
	opts   Options
	anchor temporal.Tick
	// release ends the query's hold on the database's update log.
	release func()

	mu        sync.Mutex
	answer    []Row
	err       error
	listeners []func([]Row)
	cancelled bool

	// version/evaluating/pending implement the same monotonic-install and
	// coalescing scheme as Continuous: see the comment there.
	version    uint64
	evaluating bool
	pending    bool

	// classes the query ranges over: used to skip irrelevant updates.
	classes map[string]bool
}

// Persistent registers a persistent query anchored at the current time.
// The query holds the database's update log from its anchor on until it
// is cancelled (most.Database.HoldHistory).
func (e *Engine) Persistent(q *ftl.Query, opts Options) (*Persistent, error) {
	anchor, release := e.db.HoldHistory()
	pq := &Persistent{engine: e, query: q, opts: opts, anchor: anchor, release: release, classes: map[string]bool{}}
	for _, b := range q.Bindings {
		pq.classes[b.Class] = true
	}
	// Register before the initial evaluation, holding the coalescing loop
	// (evaluating=true), so an update committed between the initial replay
	// and the map insertion marks the handle pending and is replayed by the
	// drain below instead of being lost.
	pq.evaluating = true
	e.mu.Lock()
	e.nextID++
	pq.id = e.nextID
	e.persistent[pq.id] = pq
	e.rebuildSnapshot()
	e.mu.Unlock()
	if err := pq.evalOnce(); err != nil {
		e.mu.Lock()
		delete(e.persistent, pq.id)
		e.rebuildSnapshot()
		e.mu.Unlock()
		release()
		return nil, err
	}
	pq.drainPending()
	return pq, nil
}

// Anchor returns the time t0 the query is anchored at.
func (pq *Persistent) Anchor() temporal.Tick { return pq.anchor }

// Current returns the instantiations satisfying the query at the anchor
// state, as known from the history logged so far.
func (pq *Persistent) Current() ([]Row, error) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.cancelled {
		return nil, errUnregistered
	}
	return pq.answer, pq.err
}

// Subscribe registers a listener invoked with the new answer after each
// reevaluation.  On a cancelled handle it reports errUnregistered,
// consistent with Current, and the listener is dropped.
func (pq *Persistent) Subscribe(fn func([]Row)) error {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.cancelled {
		return errUnregistered
	}
	pq.listeners = append(pq.listeners, fn)
	return nil
}

// Cancel unregisters the query and releases its hold on the update log.
func (pq *Persistent) Cancel() {
	pq.engine.mu.Lock()
	delete(pq.engine.persistent, pq.id)
	pq.engine.rebuildSnapshot()
	pq.engine.mu.Unlock()
	pq.release()
	pq.mu.Lock()
	pq.cancelled = true
	pq.mu.Unlock()
}

// relevant reports whether an update may change the answer.  The logged
// history of a class the query does not range over cannot.
func (pq *Persistent) relevant(u most.Update) bool {
	class := updateClass(u)
	if class == "" {
		return true
	}
	return pq.classes[class]
}

// reevaluate replays the query against the updated history.  Concurrent
// calls coalesce exactly as in Continuous: one goroutine evaluates at a
// time and re-runs while updates keep arriving.
func (pq *Persistent) reevaluate() {
	pq.mu.Lock()
	pq.pending = true
	if pq.evaluating {
		pq.mu.Unlock()
		return
	}
	pq.evaluating = true
	pq.mu.Unlock()
	pq.drainPending()
}

// drainPending runs reevaluation rounds while the handle is marked pending.
// The caller must have won the evaluating flag.
func (pq *Persistent) drainPending() {
	for {
		pq.mu.Lock()
		again := pq.pending && !pq.cancelled
		pq.pending = false
		if !again {
			pq.evaluating = false
			pq.mu.Unlock()
			return
		}
		pq.mu.Unlock()
		pq.engine.reg().Counter("query.persistent.reevals").Inc()
		if err := pq.evalOnce(); err != nil {
			pq.mu.Lock()
			pq.err = err
			pq.mu.Unlock()
		}
	}
}

func (pq *Persistent) evalOnce() error {
	e := pq.engine
	reg := e.reg()
	reg.Counter("query.persistent").Inc()
	sp := reg.StartSpan("query.persistent")
	defer sp.End()
	t0 := reg.Start()
	defer reg.Histogram("query.persistent_ns").Since(t0)

	hist := sp.Child("synthesize_history")
	h := e.db.History()
	v := h.Current().Version()
	objects := synthesizeHistory(h, pq.anchor, pq.anchor.Add(pq.opts.horizon()))
	hist.Annotate("objects", int64(objects.Len()))
	hist.End()

	// The motion index covers current trajectories, not the synthesized
	// history.
	opts := pq.opts
	opts.MotionIndex = nil
	rel, err := e.evalRelation(pq.query, opts, objects, pq.anchor, sp)
	if err != nil {
		return err
	}
	rows := rowsAt(rel, pq.anchor)
	pq.mu.Lock()
	if pq.cancelled {
		pq.mu.Unlock()
		return nil
	}
	var ls []func([]Row)
	if v >= pq.version {
		pq.version = v
		pq.answer, pq.err = rows, nil
		ls = append([]func([]Row){}, pq.listeners...)
	}
	pq.mu.Unlock()
	for _, fn := range ls {
		fn(rows)
	}
	return nil
}

// synthesizeHistory builds, for every object currently in the database, a
// synthetic revision whose dynamic attributes trace the object's *actual*
// trajectory from t0 (replayed from the update log) followed by the current
// implicit future up to horizonEnd.  Static attributes take their current
// values (a static attribute has a single value per revision; queries over
// past static values should bind them with the assignment quantifier at
// entry time instead).  It makes one pass over the retained log.
func synthesizeHistory(h most.History, t0, horizonEnd temporal.Tick) *most.Snapshot {
	byObj := map[most.ObjectID][]most.Update{}
	for _, u := range h.Updates() {
		byObj[u.Object] = append(byObj[u.Object], u)
	}
	current := h.Current().Objects("")
	out := make([]*most.Object, 0, len(current))
	for _, cur := range current {
		id := cur.ID()
		ups := byObj[id]
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
			// Object did not exist at t0 (inserted later): anchor at its
			// first known revision.
			continue
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
		out = append(out, synth)
	}
	return most.NewSnapshot(h.Now(), out...)
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
