package query

import (
	"slices"

	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// updateClass names the class of the object an update touches ("" when the
// update carries no revision).
func updateClass(u most.Update) string {
	switch {
	case u.After != nil:
		return u.After.Class().Name()
	case u.Before != nil:
		return u.Before.Class().Name()
	}
	return ""
}

// pinnedContext builds the minimal evaluation context for a one-variable
// query pinned to a single object: the variable's domain is the object
// itself, so the context carries only that object's revision — no
// database snapshot, no all-ids domain bind.
func (e *Engine) pinnedContext(opts Options, now temporal.Tick, sp *obs.Span, pin string, id most.ObjectID, o *most.Object) *eval.Context {
	ctx := e.newContext(opts, most.NewSnapshot(now, o), now, sp)
	ctx.Domains[pin] = []eval.Val{eval.ObjVal(id)}
	return ctx
}

// patch computes one round's patch from the queued updates: each distinct
// touched object has its answer tuples recomputed from the plan's source —
// one pinned evaluation per variable of its class — and the difference
// against the object's installed tuples is the round's patch
// (eval.Delta).  Installing it shares every untouched part of the
// installed relation's tree, so a round costs O(touched tuples ·
// log |answer|) however large the answer is.  Reading the *current* state
// makes the patch idempotent: a later update to the same object queued
// behind this round is absorbed, and recomputing in any order converges.
// It reports false when the batch cannot be patched and the round must
// rerun instead: the source has moved past the validity of the installed
// answer, or a pinned evaluation failed.  Called by the drain, with an
// answer installed.
func (p *sharedPlan) patch(batch []most.Update) (round, bool) {
	e := p.engine
	reg := e.reg()
	sp := reg.StartSpan(p.metrics.delta)
	defer sp.End()
	t0 := reg.Start()
	defer reg.Histogram(p.metrics.deltaLatency).Since(t0)

	// Distinct touched objects, in arrival order.  The scratch set is the
	// drain's own: only one goroutine drains a plan at a time.
	if p.seen == nil {
		p.seen = map[most.ObjectID]struct{}{}
	}
	ids := make([]most.ObjectID, 0, len(batch))
	for _, u := range batch {
		if _, dup := p.seen[u.Object]; !dup {
			p.seen[u.Object] = struct{}{}
			ids = append(ids, u.Object)
		}
	}
	clear(p.seen)

	nq := &p.nq
	// Single-binding fast path: a pinned evaluation of a one-variable query
	// touches only the pinned object, so the context can carry just that
	// object instead of a full database snapshot and all-ids domain — this
	// is what keeps per-update maintenance cost independent of fleet size.
	// Any other shape binds its domains from every object.
	single, read := "", []most.ObjectID(nil)
	if len(nq.Bindings) == 1 {
		single, read = nq.Bindings[0].Var, ids
	}
	// One read supplies the install stamp, the evaluation tick and the
	// touched objects' revisions.
	snap, now, v := p.source.read(sp, read)
	if now != p.anchor && now > p.anchor.Add(p.opts.horizon()-p.analysis.Depth) {
		// Unchanged tuples are no longer presentable this far past the
		// anchor: re-anchor the whole relation.  A read at the anchor
		// itself, as every persistent read is, never needs it.
		return round{}, false
	}
	var ctx *eval.Context
	if single == "" {
		full, err := e.boundContext(nq, p.opts, snap, now, sp)
		if err != nil {
			p.count(p.metrics.fallback, 1)
			return round{}, false
		}
		ctx = full
	}
	cur := p.answer
	repl := eval.NewRelation(cur.Cols...)
	for _, id := range ids {
		o, ok := snap.Get(id)
		if !ok {
			// Object deleted: removal only.
			continue
		}
		for _, pin := range p.vars[o.Class().Name()] {
			ectx := ctx
			if single != "" {
				ectx = e.pinnedContext(p.opts, now, sp, pin, id, o)
			}
			rel, err := eval.EvalQueryPinned(nq, ectx, pin, eval.ObjVal(id))
			if err == nil {
				e.countEval()
				err = repl.InsertFrom(rel)
			}
			if err != nil {
				p.count(p.metrics.fallback, 1)
				return round{}, false
			}
		}
	}
	var oldKeys []string
	for _, id := range ids {
		oldKeys = append(oldKeys, p.keysOf(cur, id)...)
	}
	p.count(p.metrics.delta, int64(len(ids)))
	return round{d: cur.ReplaceDelta(oldKeys, repl), now: now, v: v}, true
}

// keysOf returns the keys of the installed tuples that mention object id.
// A one-column answer keys each object's tuple by the object alone; wider
// answers go through the plan's object index.  Called by the drain.
func (p *sharedPlan) keysOf(cur *eval.Relation, id most.ObjectID) []string {
	if len(cur.Cols) == 1 {
		return []string{eval.Key([]eval.Val{eval.ObjVal(id)})}
	}
	return p.byObj[id]
}

// reindex brings the object index in line with a new install: a patch
// updates only the keys it touches, a reset (d == nil) rebuilds the index.
// One-column answers need no index.  Called by the drain or, for the
// initial install, before the drain starts.
func (p *sharedPlan) reindex(next *eval.Relation, d *eval.Delta) {
	if len(next.Cols) < 2 {
		p.byObj = nil
		return
	}
	if d == nil || p.byObj == nil {
		p.byObj = map[most.ObjectID][]string{}
		for _, t := range next.Tuples() {
			p.indexTuple(t, eval.Key(t.Vals), true)
		}
		return
	}
	for _, t := range d.Gone {
		p.indexTuple(t, eval.Key(t.Vals), false)
	}
	for _, t := range d.Put {
		p.indexTuple(t, eval.Key(t.Vals), true)
	}
}

// indexTuple adds (or removes) key under every object the tuple mentions.
func (p *sharedPlan) indexTuple(t *eval.Tuple, key string, add bool) {
	for i, v := range t.Vals {
		if v.Kind != eval.ValObj || slices.ContainsFunc(t.Vals[:i], func(w eval.Val) bool { return w == v }) {
			continue
		}
		keys := p.byObj[v.Obj]
		j := slices.Index(keys, key)
		switch {
		case add && j < 0:
			p.byObj[v.Obj] = append(keys, key)
		case !add && j >= 0:
			keys = slices.Delete(keys, j, j+1)
			if len(keys) == 0 {
				delete(p.byObj, v.Obj)
			} else {
				p.byObj[v.Obj] = keys
			}
		}
	}
}
