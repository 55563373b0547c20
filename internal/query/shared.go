package query

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// sharedPlan is one maintained registered-query plan.  A continuous plan
// is shared by every subscriber handle whose registration canonicalizes
// to the same planKey: the paper's evaluate-once-then-maintain discipline
// (§3.5) is applied per *distinct* plan, not per registration, so an
// update pays one delta patch or one reevaluation here and the installed
// relation fans out to all attached handles, making per-update maintenance
// cost proportional to the number of distinct query shapes rather than the
// subscriber count.  A persistent plan (see Engine.Persistent) runs on the
// same scheduler and is maintained the same way; only the data set at
// registration differ: what an evaluation reads (source), the prefix of
// the counters it moves (metrics), and what its removal gives back
// (release).
type sharedPlan struct {
	key     string
	planID  uint64
	engine  *Engine
	query   *ftl.Query // first registrant's query; sharers are canonically identical
	opts    Options
	plan    deltaPlan
	roi     roiPlan
	classes map[string]bool
	metrics planMetrics
	source  source
	// release gives back what the plan's creation took; it runs once,
	// when the plan is removed from the engine.
	release func()

	// ready is closed once the creator's initial evaluation has installed
	// (or failed with initErr, after removing the plan from the engine);
	// joiners block on it so a returned handle always has an answer.
	ready   chan struct{}
	initErr error

	mu         sync.Mutex
	answer     *eval.Relation // frozen; replaced, never mutated
	err        error
	gen        uint64 // number of the installed answer (see Install.Gen)
	version    uint64
	anchor     temporal.Tick
	evaluating bool
	needFull   bool
	queue      []most.Update
	removed    bool
	subs       []*Continuous

	// byObj indexes a multi-column answer's tuple keys by the objects
	// they mention, and seen is runDelta's scratch set; both belong to the
	// goroutine holding the evaluating flag.
	byObj map[most.ObjectID][]string
	seen  map[most.ObjectID]struct{}

	// validUntil is anchor+horizon-depth of the installed answer (the last
	// tick it stays presentable at): the ROI filter may skip an update only
	// while its tick is inside this window.  Updated on every full install;
	// read lock-free by Engine.onBatch.
	validUntil atomic.Int64
}

// source is what a plan's evaluations read: the current state for a
// continuous plan, the replayed history at a fixed anchor for a persistent
// one.  Maintenance is otherwise the same for both kinds.
type source struct {
	// read returns the objects one evaluation reads, as a stage of sp,
	// with the tick the evaluation is anchored at and the database
	// version it reflects.  Given ids it need return only those objects,
	// leaving out the ones that no longer exist; nil ids asks for every
	// object.
	read func(sp *obs.Span, ids []most.ObjectID) (*most.Snapshot, temporal.Tick, uint64)
	// fixed is true when every read is anchored at the same tick, so a
	// patch never mixes the windows of two anchors.
	fixed bool
}

// planMetrics names the counters, histograms and spans a plan's rounds
// move, all under its kind's prefix ("query.continuous" or
// "query.persistent").
type planMetrics struct {
	root, latency                        string // full evaluations
	delta, deltaLatency                  string // delta rounds; delta also counts touched objects
	full, fallback, suppressed, patchLen string
	plans                                string // live-plan gauge
}

func newPlanMetrics(prefix string) planMetrics {
	return planMetrics{
		root: prefix, latency: prefix + "_ns",
		delta: prefix + ".delta", deltaLatency: prefix + ".delta_ns",
		full: prefix + ".full", fallback: prefix + ".fallback",
		suppressed: prefix + ".suppressed", patchLen: prefix + ".patch_tuples",
		plans: prefix + ".shared_plans",
	}
}

// newPlan returns an unregistered plan for q that reads the objects of
// src, counts under the metrics prefix, and patches deltable updates.
func newPlan(e *Engine, key string, q *ftl.Query, opts Options, prefix string, src source) *sharedPlan {
	p := &sharedPlan{
		key:     key,
		engine:  e,
		query:   q,
		opts:    opts,
		plan:    newDeltaPlan(q),
		classes: map[string]bool{},
		metrics: newPlanMetrics(prefix),
		source:  src,
		release: func() {},
		ready:   make(chan struct{}),
	}
	for _, b := range q.Bindings {
		p.classes[b.Class] = true
	}
	return p
}

// count adds n to the plan's counter name (see planMetrics).
func (p *sharedPlan) count(name string, n int64) {
	p.engine.reg().Counter(name).Add(n)
}

// start registers the new plan p with h as its first handle and runs its
// initial evaluation.  Callers hold e.mu; start releases it.  The plan is
// registered before the initial evaluation, holding the maintenance loop
// (evaluating=true), so an update committed between the initial read and
// the registration is queued and applied by the drain below instead of
// being lost: the update either commits before the evaluated version is
// published (and is in it) or after the registration (and its onBatch,
// which runs after its commit, finds the plan).  A failed initial
// evaluation removes the plan again and is returned.
func (e *Engine) start(p *sharedPlan, h *Continuous) error {
	p.evaluating = true
	p.subs = []*Continuous{h}
	h.sp = p
	e.nextPlanID++
	p.planID = e.nextPlanID
	e.plans[p.key] = p
	e.rebuildSnapshot()
	e.mu.Unlock()
	p.count(p.metrics.plans, 1)

	rel, now, v, err := p.evaluate()
	if err != nil {
		e.mu.Lock()
		e.removeLocked(p)
		e.mu.Unlock()
		p.initErr = err
		close(p.ready)
		return err
	}
	p.mu.Lock()
	p.answer, p.version, p.anchor, p.gen = rel.Freeze(), v, now, 1
	p.reindex(p.answer, nil)
	p.storeValidity(now)
	p.mu.Unlock()
	close(p.ready)
	p.drain()
	return nil
}

// removeLocked takes p out of the engine: no update reaches it any more,
// and a round in flight installs nothing.  Callers hold e.mu and call it
// once per plan.
func (e *Engine) removeLocked(p *sharedPlan) {
	delete(e.plans, p.key)
	e.rebuildSnapshot()
	p.mu.Lock()
	p.removed = true
	p.mu.Unlock()
	p.count(p.metrics.plans, -1)
	p.release()
}

// canSkip reports whether an update to class with the given motion
// envelope provably cannot change any presentation of the installed
// answer (see roiPlan for the full soundness argument).
func (p *sharedPlan) canSkip(class string, tick temporal.Tick, env rect2) bool {
	b, ok := p.roi.bounds[class]
	if !ok {
		return false
	}
	if int64(tick) > p.validUntil.Load() {
		// Past the answer's validity: the update must be dispatched so the
		// drain re-anchors, even if it is spatially irrelevant.
		return false
	}
	return !env.intersects(b)
}

// evaluate runs one full evaluation of the plan's query under its own root
// span and metrics, returning the relation and the tick and database
// version of the objects it read.
func (p *sharedPlan) evaluate() (*eval.Relation, temporal.Tick, uint64, error) {
	e := p.engine
	reg := e.reg()
	reg.Counter(p.metrics.root).Inc()
	sp := reg.StartSpan(p.metrics.root)
	defer sp.End()
	t0 := reg.Start()
	defer reg.Histogram(p.metrics.latency).Since(t0)
	objects, now, v := p.source.read(sp, nil)
	rel, err := e.evalRelation(p.query, p.opts, objects, now, sp)
	return rel, now, v, err
}

// storeValidity records the installed answer's presentability window end.
// Callers hold p.mu.
func (p *sharedPlan) storeValidity(anchor temporal.Tick) {
	p.validUntil.Store(int64(anchor.Add(p.opts.horizon() - p.plan.analysis.Depth)))
}

// maintain folds one batch's relevant updates, in commit order, into the
// maintenance state and, if no other goroutine is draining, drains: one
// round covers the whole batch.  Concurrent calls coalesce: one goroutine
// works at a time and the others just deposit their updates.
func (p *sharedPlan) maintain(ups []most.Update) {
	p.mu.Lock()
	if p.removed {
		p.mu.Unlock()
		return
	}
	// Classification is counted per update, independently of scheduling:
	// the fallback counter answers "how many updates could not be applied
	// as deltas", including ones arriving while a full reevaluation was
	// already pending.
	for _, u := range ups {
		deltable := p.deltable(u)
		if !deltable {
			p.count(p.metrics.fallback, 1)
		}
		switch {
		case p.needFull:
			// A full reevaluation is already scheduled; it covers this update.
		case deltable:
			p.queue = append(p.queue, u)
		default:
			p.needFull = true
			p.queue = nil
		}
	}
	if p.evaluating {
		p.mu.Unlock()
		return
	}
	p.evaluating = true
	p.mu.Unlock()
	p.drain()
}

// deltable reports whether u can be applied as a per-object patch.  Callers
// hold p.mu.
func (p *sharedPlan) deltable(u most.Update) bool {
	return p.plan.deltable(u, p.opts.horizon(), p.source.fixed)
}

// drain runs maintenance rounds until no work is queued.  The caller must
// have won the evaluating flag.  Each round applies the queued updates as
// per-object deltas, or runs one full reevaluation when a fallback
// condition holds: needFull was set, the materialized state is errored or
// missing, or the delta round refused the batch (its source has moved past
// the installed answer's validity, or the application itself failed).
func (p *sharedPlan) drain() {
	for {
		p.mu.Lock()
		if p.removed {
			p.evaluating, p.needFull, p.queue = false, false, nil
			p.mu.Unlock()
			return
		}
		full := p.needFull
		batch := p.queue
		p.needFull, p.queue = false, nil
		if !full && len(batch) == 0 {
			p.evaluating = false
			p.mu.Unlock()
			return
		}
		if !full && (p.err != nil || p.answer == nil) {
			full = true
		}
		anchor := p.anchor
		p.mu.Unlock()
		if full || !p.runDelta(batch, anchor) {
			p.runFull()
		}
	}
}

// runFull recomputes the answer from the current state and installs it
// under the version guard, so a slow evaluation finishing late never
// overwrites a newer answer.  The new answer is diffed against the
// installed one (a full run is O(data) anyway) and installed as a patch,
// so listeners see the same patch stream as after delta rounds.  An
// install that reproduces the previous relation exactly still advances
// version/anchor/validity but does not fan out: same-class no-op updates
// stop producing spurious pushes to every subscriber.
func (p *sharedPlan) runFull() {
	p.count(p.metrics.full, 1)
	rel, now, v, err := p.evaluate()
	p.mu.Lock()
	if p.removed {
		p.mu.Unlock()
		return
	}
	var subs []*Continuous
	var in Install
	if v >= p.version {
		p.version = v
		p.anchor = now
		switch {
		case err != nil:
			p.err, p.answer = err, nil
		case p.err == nil && p.answer != nil && slices.Equal(p.answer.Cols, rel.Cols):
			p.storeValidity(now)
			if d := eval.Diff(p.answer, rel); d.Empty() {
				p.count(p.metrics.suppressed, 1)
			} else {
				subs, in = p.installLocked(p.answer.Patch(d), &d)
			}
		default:
			// No installed answer to patch (first success after a failed
			// round): the install is a reset.
			p.err = nil
			p.storeValidity(now)
			subs, in = p.installLocked(rel.Freeze(), nil)
		}
	}
	p.mu.Unlock()
	p.notify(subs, in)
}

// installLocked makes next the installed answer, numbers it, and returns
// the handles to fan it out to.  d is the patch from the previous install,
// nil for a reset.  Callers hold p.mu and the evaluating flag.
func (p *sharedPlan) installLocked(next *eval.Relation, d *eval.Delta) ([]*Continuous, Install) {
	p.answer = next
	p.gen++
	p.reindex(next, d)
	if d != nil {
		p.count(p.metrics.patchLen, int64(d.Len()))
	} else {
		p.count(p.metrics.patchLen, int64(next.Len()))
	}
	return append([]*Continuous(nil), p.subs...), Install{Rel: next, Gen: p.gen, Patch: d}
}

// notify fans one install out to the listeners of the given subscriber
// handles.  Handle listener lists are snapshotted under each handle's
// lock; invocations run lock-free.
func (p *sharedPlan) notify(subs []*Continuous, in Install) {
	for _, h := range subs {
		h.mu.Lock()
		if h.cancelled {
			h.mu.Unlock()
			continue
		}
		ls := append([]func(Install){}, h.listeners...)
		h.mu.Unlock()
		for _, fn := range ls {
			fn(in)
		}
	}
}
