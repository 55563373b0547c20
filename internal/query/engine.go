// Package query implements the three MOST query types of §2.3 on top of
// the FTL evaluator:
//
//   - an instantaneous query at time t is evaluated once on the implicit
//     future history beginning at t;
//   - a continuous query is evaluated once into the materialized relation
//     Answer(CQ) and presented per clock tick; "reevaluation has to occur
//     only if the motion vector ... changes", which the engine performs by
//     subscribing to the database's explicit updates;
//   - a persistent query at time t is a sequence of instantaneous queries
//     all anchored at t, re-run whenever the database is updated, over the
//     actual logged history concatenated with the current implicit future.
//     (The paper defines these semantics and postpones evaluation to future
//     work; this package implements them.)
//
// Continuous and persistent queries coupled with an action form the
// temporal triggers of §2.3.
package query

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// Options configure one query evaluation.
type Options struct {
	// Horizon is the query expiry: how far into the future the evaluation
	// window extends (§2.3).  Zero selects DefaultHorizon.
	Horizon temporal.Tick
	// Regions names the polygons referenced by INSIDE/OUTSIDE.
	Regions map[string]geom.Polygon
	// MaxAssignStates caps the evaluator's per-tick discretization of an
	// assignment term (see eval.Context).
	MaxAssignStates int
}

// DefaultHorizon is the query expiry used when Options.Horizon is zero.
const DefaultHorizon temporal.Tick = 1000

func (o Options) horizon() temporal.Tick {
	if o.Horizon <= 0 {
		return DefaultHorizon
	}
	return o.Horizon
}

// Engine evaluates queries against a MOST database and maintains the
// materialized answers of registered continuous and persistent queries.
type Engine struct {
	db *most.Database

	mu         sync.Mutex
	nextPlanID uint64
	plans      map[string]*sharedPlan

	// snap is the pre-sorted registration snapshot onBatch dispatches
	// from, rebuilt under mu on every (un)registration: the per-batch
	// hot path never locks, allocates, or sorts.
	snap atomic.Pointer[regSnapshot]
	// dispatches pools onBatch's grouping scratch.
	dispatches sync.Pool

	// evals counts FTL evaluations, full and pinned, for the experiments
	// comparing evaluate-once against per-tick reevaluation.
	evals atomic.Int64

	// obsReg is the engine's observability registry; nil (the default)
	// disables every hook at the cost of one branch.  Held atomically so
	// Instrument may race with running queries.
	obsReg atomic.Pointer[obs.Registry]
}

// regSnapshot is the immutable dispatch view of the registered queries.
type regSnapshot struct {
	plans []*sharedPlan // sorted by planID
	// maxHorizon is the widest horizon across plans that can skip: ROI
	// motion envelopes are computed once per update over
	// [tick, tick+maxHorizon], which is conservative (a wider envelope can
	// only keep more plans relevant).
	maxHorizon temporal.Tick
	// roi is true when at least one plan can skip spatially irrelevant
	// updates, so envelope computation is worth paying for at all.
	roi bool
}

// rebuildSnapshot recomputes the dispatch snapshot.  Callers hold e.mu.
func (e *Engine) rebuildSnapshot() {
	s := &regSnapshot{}
	if len(e.plans) > 0 {
		s.plans = make([]*sharedPlan, 0, len(e.plans))
		for _, p := range e.plans {
			s.plans = append(s.plans, p)
			if p.roi.any() {
				s.roi = true
				s.maxHorizon = max(s.maxHorizon, p.opts.horizon())
			}
		}
		sort.Slice(s.plans, func(i, j int) bool { return s.plans[i].planID < s.plans[j].planID })
	}
	e.snap.Store(s)
}

// NewEngine returns an engine bound to db, subscribed to its updates.
func NewEngine(db *most.Database) *Engine {
	e := &Engine{
		db:    db,
		plans: map[string]*sharedPlan{},
	}
	e.snap.Store(&regSnapshot{})
	db.Subscribe(e.onBatch)
	return e
}

// Instrument attaches an observability registry to the engine: every query
// evaluation then records per-type counters, latency histograms, and a span
// tree per root stage (parse, rewrite, snapshot, bind, index_probe,
// subformula_eval, answer_assembly).  Instrument(nil) detaches.  Safe to
// call concurrently with running queries.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.obsReg.Store(reg)
}

// reg returns the attached registry (nil when uninstrumented).
func (e *Engine) reg() *obs.Registry {
	return e.obsReg.Load()
}

// Evaluations returns the number of FTL evaluations performed: every full
// evaluation (instantaneous queries, registrations, reruns) and every
// pinned evaluation of a patch round (one per updated object and variable
// of its class).
func (e *Engine) Evaluations() int {
	return int(e.evals.Load())
}

func (e *Engine) countEval() {
	e.evals.Add(1)
}

// newContext builds an evaluation context at now over objects, with no
// domains bound.
func (e *Engine) newContext(opts Options, objects *most.Snapshot, now temporal.Tick, sp *obs.Span) *eval.Context {
	return &eval.Context{
		Now:             now,
		Horizon:         opts.horizon(),
		Objects:         objects,
		Regions:         opts.Regions,
		Domains:         map[string][]eval.Val{},
		MaxAssignStates: opts.MaxAssignStates,
		Obs:             e.reg(),
		Span:            sp,
	}
}

// boundContext is newContext with the domains of q bound from objects, as
// the bind stage of sp.
func (e *Engine) boundContext(q *ftl.Query, opts Options, objects *most.Snapshot, now temporal.Tick, sp *obs.Span) (*eval.Context, error) {
	ctx := e.newContext(opts, objects, now, sp)
	bind := sp.Child("bind")
	err := ctx.BindDomains(q)
	bind.End()
	return ctx, err
}

// snapshot takes the database version an evaluation reads, as the
// snapshot stage of sp.
func (e *Engine) snapshot(sp *obs.Span) *most.Snapshot {
	st := sp.Child("snapshot")
	s := e.db.Snapshot()
	st.Annotate("objects", int64(s.Len()))
	st.End()
	return s
}

// evalRelation is the full evaluation path behind all three query types:
// context construction over objects at now with the domains bound from the
// same objects, and the FTL evaluation of the normalized query nq itself,
// recorded as child stages of sp.
func (e *Engine) evalRelation(nq *ftl.Query, opts Options, objects *most.Snapshot, now temporal.Tick, sp *obs.Span) (*eval.Relation, error) {
	ctx, err := e.boundContext(nq, opts, objects, now, sp)
	if err != nil {
		return nil, err
	}
	rel, err := eval.EvalQuery(nq, ctx)
	if err != nil {
		return nil, err
	}
	e.countEval()
	return rel, nil
}

// Row is one presented answer instantiation.
type Row []eval.Val

// rowsAt presents the instantiations of rel satisfied at tick t.
func rowsAt(rel *eval.Relation, t temporal.Tick) []Row {
	var rows []Row
	for _, vals := range rel.At(t) {
		rows = append(rows, Row(vals))
	}
	return rows
}

// Instantaneous evaluates q at the current time and returns the
// instantiations satisfying it now, i.e. whose answer interval contains the
// entry tick (§2.3, §3.5).
func (e *Engine) Instantaneous(q *ftl.Query, opts Options) ([]Row, error) {
	rel, now, err := e.instantaneous(q, "", opts)
	if err != nil {
		return nil, err
	}
	return rowsAt(rel, now), nil
}

// Query parses, normalizes, and evaluates src as an instantaneous query.
// This is the text entry point; the parse is recorded as the first stage of
// the query's span tree.
func (e *Engine) Query(src string, opts Options) ([]Row, error) {
	rel, now, err := e.instantaneous(nil, src, opts)
	if err != nil {
		return nil, err
	}
	return rowsAt(rel, now), nil
}

// InstantaneousRelation evaluates q at the current time and returns the
// full Answer relation (every instantiation with its interval set).
func (e *Engine) InstantaneousRelation(q *ftl.Query, opts Options) (*eval.Relation, error) {
	rel, _, err := e.instantaneous(q, "", opts)
	return rel, err
}

// instantaneous evaluates q — or, when q is nil, src parsed as the parse
// stage — normalized as the rewrite stage, over one snapshot, returning
// the relation and the tick it is anchored at.
func (e *Engine) instantaneous(q *ftl.Query, src string, opts Options) (*eval.Relation, temporal.Tick, error) {
	reg := e.reg()
	reg.Counter("query.instantaneous").Inc()
	sp := reg.StartSpan("query.instantaneous")
	defer sp.End()
	t0 := reg.Start()
	defer reg.Histogram("query.instantaneous_ns").Since(t0)
	if q == nil {
		ps := sp.Child("parse")
		var err error
		q, err = ftl.Parse(src)
		ps.End()
		if err != nil {
			return nil, 0, err
		}
	}
	rw := sp.Child("rewrite")
	nq := ftl.NormalizeQuery(*q)
	rw.End()
	s := e.snapshot(sp)
	rel, err := e.evalRelation(&nq, opts, s, s.Now(), sp)
	return rel, s.Now(), err
}

// onBatch maintains registered queries after a committed batch of
// explicit updates (§2.3: "a continuous query CQ has to be reevaluated when
// an update occurs that may change the set of tuples Answer(CQ)").
// Dispatch runs off the pre-sorted registration snapshot in three cheap
// stages per update — class filter, then the plans' spatial relevance
// filter against the update's motion envelope, then grouping by plan — so
// a batch no registered query keeps costs a snapshot load and a scan, with
// no locking or allocation.  Each plan the batch touches then runs one
// maintenance round over its group, and independent plans maintain
// concurrently on at most GOMAXPROCS goroutines.  With a single updater,
// onBatch returns only once every registered query reflects the batch —
// exactly the sequential semantics; under concurrent updaters, work
// already in flight absorbs this batch instead (see
// sharedPlan.maintain/drain).
func (e *Engine) onBatch(ups []most.Update) {
	s := e.snap.Load()
	if len(s.plans) == 0 {
		return
	}
	var d *dispatch
	skipped := 0
	for i := range ups {
		u := &ups[i]
		class := updateClass(*u)
		var env rect2
		first, envOK := true, false
		for j, p := range s.plans {
			if class != "" && p.vars[class] == nil {
				continue
			}
			if first {
				// One envelope per update, over the widest horizon.
				first = false
				if s.roi && class != "" {
					env, envOK = motionEnvelope(*u, u.Tick, u.Tick.Add(s.maxHorizon))
				}
			}
			if envOK && p.canSkip(class, u.Tick, env) {
				skipped++
				continue
			}
			if d == nil {
				d = e.takeDispatch(len(s.plans))
			}
			if len(d.groups[j]) == 0 {
				d.touched = append(d.touched, j)
			}
			d.groups[j] = append(d.groups[j], *u)
		}
	}
	if skipped > 0 {
		e.reg().Counter("query.continuous.skipped_irrelevant").Add(int64(skipped))
	}
	if d == nil {
		return
	}
	runBounded(len(d.touched), func(k int) {
		j := d.touched[k]
		s.plans[j].maintain(d.groups[j])
	})
	for _, j := range d.touched {
		clear(d.groups[j]) // drop the revisions before pooling
		d.groups[j] = d.groups[j][:0]
	}
	d.touched = d.touched[:0]
	e.dispatches.Put(d)
}

// dispatch is onBatch's scratch: the batch's kept updates grouped by plan,
// indexed by the plan's position in the registration snapshot, and the
// positions of the plans the batch touches, in order.  Pooled, so batches
// reuse the groups of earlier ones.
type dispatch struct {
	groups  [][]most.Update
	touched []int
}

// takeDispatch returns empty scratch for a snapshot of n plans.
func (e *Engine) takeDispatch(n int) *dispatch {
	d, _ := e.dispatches.Get().(*dispatch)
	if d == nil {
		d = &dispatch{}
	}
	if len(d.groups) < n {
		d.groups = append(d.groups, make([][]most.Update, n-len(d.groups))...)
	}
	return d
}

// runBounded runs task(0) … task(n-1) on at most GOMAXPROCS goroutines and
// waits for all of them.  A single task runs inline.
func runBounded(n int, task func(i int)) {
	if n == 1 {
		task(0)
		return
	}
	nw := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// errUnregistered guards handle reuse after Cancel.
var errUnregistered = fmt.Errorf("query: handle was cancelled")
