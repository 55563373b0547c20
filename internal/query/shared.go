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

// sharedPlan is one maintained registered-query plan: the query prepared
// once at registration, the installed answer, the maintenance decision and
// the listeners of every handle attached to it.  A continuous plan is
// shared by every subscriber handle whose registration canonicalizes to
// the same planKey: the paper's evaluate-once-then-maintain discipline
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
	key    string
	planID uint64
	engine *Engine
	opts   Options
	// nq is the normalized query every evaluation of the plan runs, full
	// or pinned; sharers' queries normalize to the same shape.
	nq       ftl.Query
	analysis ftl.DeltaAnalysis
	// vars lists the FROM-bound variables ranging over each class: an
	// update to an object of class C concerns the plan only if C is a key,
	// and is patched by re-pinning each of C's variables to the object.
	vars    map[string][]string
	roi     roiPlan
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
	// handles counts the attached handles, under Engine.mu: the last
	// Cancel removes the plan.
	handles int

	// mu guards the fields below.  answer, err, gen, version, anchor and
	// byObj are written only by the goroutine holding the evaluating flag,
	// which may therefore read them without mu.
	mu         sync.Mutex
	answer     *eval.Relation // frozen; replaced, never mutated
	err        error
	gen        uint64 // number of the installed answer (see Install.Gen)
	version    uint64 // database version the installed state reflects
	anchor     temporal.Tick
	evaluating bool
	needFull   bool
	queue      []most.Update
	removed    bool
	// listeners is copy-on-write: an install fans out to the slice it
	// saw, unaffected by later Subscribe and Cancel calls.
	listeners []listener

	// byObj indexes a multi-column answer's tuple keys by the objects
	// they mention, and seen is a patch round's scratch set; both belong
	// to the goroutine holding the evaluating flag.
	byObj map[most.ObjectID][]string
	seen  map[most.ObjectID]struct{}

	// validUntil is anchor+horizon-depth of the installed answer (the last
	// tick it stays presentable at): the ROI filter may skip an update only
	// while its tick is inside this window.  Updated on every full install;
	// read lock-free by Engine.onBatch.
	validUntil atomic.Int64
}

// listener is one function subscribed through handle h.
type listener struct {
	h  *Continuous
	fn func(Install)
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

// newPlan returns an unregistered plan for the normalized query nq that
// reads the objects of src, counts under the metrics prefix, and patches
// deltable updates.
func newPlan(e *Engine, key string, nq ftl.Query, opts Options, prefix string, src source) *sharedPlan {
	p := &sharedPlan{
		key:      key,
		engine:   e,
		opts:     opts,
		nq:       nq,
		analysis: ftl.AnalyzeDelta(&nq),
		vars:     map[string][]string{},
		metrics:  newPlanMetrics(prefix),
		source:   src,
		release:  func() {},
		ready:    make(chan struct{}),
	}
	for _, b := range nq.Bindings {
		p.vars[b.Class] = append(p.vars[b.Class], b.Var)
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
	p.handles = 1
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

// subscribe adds fn to the plan's listeners on behalf of h, unless h was
// cancelled.
func (p *sharedPlan) subscribe(h *Continuous, fn func(Install)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.cancelled.Load() {
		return errUnregistered
	}
	p.listeners = append(slices.Clip(p.listeners), listener{h: h, fn: fn})
	return nil
}

// detach cancels h and drops its listeners, reporting whether h was the
// plan's last handle.  A second detach of the same handle does nothing.
// Callers hold e.mu.
func (p *sharedPlan) detach(h *Continuous) (last bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.cancelled.Swap(true) {
		return false
	}
	p.handles--
	p.listeners = slices.DeleteFunc(slices.Clone(p.listeners), func(l listener) bool { return l.h == h })
	return p.handles == 0
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
	rel, err := e.evalRelation(&p.nq, p.opts, objects, now, sp)
	return rel, now, v, err
}

// storeValidity records the installed answer's presentability window end.
// Callers hold p.mu.
func (p *sharedPlan) storeValidity(anchor temporal.Tick) {
	p.validUntil.Store(int64(anchor.Add(p.opts.horizon() - p.analysis.Depth)))
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

// deltable reports whether u can be applied as a per-object patch: every
// variable ranging over the updated object's class must be maintainable (a
// RETRIEVE target, uncoupled by assignment quantifiers), and, unless every
// evaluation is anchored at one tick (source.fixed), the formula's
// lookahead must be finite and fit the horizon, because a patch evaluated
// past the installed anchor mixes two windows.
func (p *sharedPlan) deltable(u most.Update) bool {
	if !p.source.fixed && (!p.analysis.Bounded || p.analysis.Depth > p.opts.horizon()) {
		return false
	}
	vars := p.vars[updateClass(u)]
	if len(vars) == 0 {
		return false
	}
	for _, v := range vars {
		if !p.analysis.Maintainable[v] {
			return false
		}
	}
	return true
}

// round is one maintenance round's outcome, ready to install: an error, a
// whole answer to reset to, or a patch against the installed answer.
type round struct {
	err   error
	reset *eval.Relation
	d     eval.Delta
	// rerun marks a full evaluation, which re-anchors the answer at now.
	rerun bool
	now   temporal.Tick
	v     uint64 // database version the round read
}

// drain runs maintenance rounds until no work is queued.  The caller must
// have won the evaluating flag.  Each round makes one decision: it patches
// the queued updates into the installed answer (patch), or reruns the
// query from scratch (rerun) when a patch is ruled out — needFull was set,
// the installed state is errored, or the patch refused the batch (its
// source has moved past the installed answer's validity, or a pinned
// evaluation failed).  Either way the round ends in install.
func (p *sharedPlan) drain() {
	for {
		p.mu.Lock()
		if p.removed {
			p.evaluating, p.needFull, p.queue = false, false, nil
			p.mu.Unlock()
			return
		}
		full, batch := p.needFull, p.queue
		p.needFull, p.queue = false, nil
		if !full && len(batch) == 0 {
			p.evaluating = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		r, ok := round{}, false
		if !full && p.answer != nil { // a failed round leaves no answer to patch
			r, ok = p.patch(batch)
		}
		if !ok {
			r = p.rerun()
		}
		p.install(r)
	}
}

// rerun recomputes the answer from the plan's source.  The new answer is
// diffed against the installed one (a full run is O(data) anyway), so
// listeners see the same patch stream as after patch rounds; with no
// installed answer to diff against (the first success after a failed
// round) it is a reset.
func (p *sharedPlan) rerun() round {
	p.count(p.metrics.full, 1)
	rel, now, v, err := p.evaluate()
	r := round{err: err, rerun: true, now: now, v: v}
	switch {
	case err != nil:
	case p.answer != nil && slices.Equal(p.answer.Cols, rel.Cols):
		r.d = eval.Diff(p.answer, rel)
	default:
		r.reset = rel
	}
	return r
}

// install is every round's tail.  Unless the plan was removed meanwhile
// or the round read an older database version than the installed state
// reflects, it re-anchors after a rerun, then installs the round's error
// (which fans nothing out), reset or patch, and fans the install out to
// the listeners.  An empty patch leaves the installed answer in place and
// is counted as suppressed: an update that changes no answer pushes
// nothing to any subscriber.
func (p *sharedPlan) install(r round) {
	p.mu.Lock()
	if p.removed || r.v < p.version {
		p.mu.Unlock()
		return
	}
	p.version = r.v
	if r.rerun {
		p.anchor = r.now
		if r.err == nil {
			p.storeValidity(r.now)
		}
	}
	var ls []listener
	var in Install
	switch {
	case r.err != nil:
		p.err, p.answer = r.err, nil
	case r.reset != nil:
		p.err = nil
		ls, in = p.installLocked(r.reset.Freeze(), nil)
	case r.d.Empty():
		p.count(p.metrics.suppressed, 1)
	default:
		ls, in = p.installLocked(p.answer.Patch(r.d), &r.d)
	}
	p.mu.Unlock()
	for _, l := range ls {
		if !l.h.cancelled.Load() {
			l.fn(in)
		}
	}
}

// installLocked makes next the installed answer, numbers it, and returns
// the listeners to fan it out to.  d is the patch from the previous
// install, nil for a reset.  Callers hold p.mu and the evaluating flag.
func (p *sharedPlan) installLocked(next *eval.Relation, d *eval.Delta) ([]listener, Install) {
	p.answer = next
	p.gen++
	p.reindex(next, d)
	if d != nil {
		p.count(p.metrics.patchLen, int64(d.Len()))
	} else {
		p.count(p.metrics.patchLen, int64(next.Len()))
	}
	return p.listeners, Install{Rel: next, Gen: p.gen, Patch: d}
}
