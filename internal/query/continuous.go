package query

import (
	"sync/atomic"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// Continuous is a registered continuous query handle: Answer(CQ) is
// materialized once at registration and maintained under explicit updates.
// Between updates, presentation at each clock tick is a lookup, not a
// reevaluation — the paper's central efficiency claim for continuous
// queries ("our query processing algorithm facilitates a single evaluation
// of the query; reevaluation has to occur only if the motion vector of the
// car changes").
//
// A handle is thin: registrations that canonicalize to the same plan key
// (see planKey) share one maintained sharedPlan, which holds the prepared
// query, the installed answer, the maintenance rounds and every handle's
// listeners.  The handle itself only names its plan and whether it was
// cancelled.  N subscribers to the same query shape cost one maintenance
// per update, not N.
type Continuous struct {
	sp *sharedPlan
	// cancelled is set once, by Cancel under the plan's lock; fan-out
	// reads it lock-free to skip a handle cancelled after the install.
	cancelled atomic.Bool
}

// Install is one installed Answer(CQ) as fanned out to listeners: the
// relation, its number, and the patch that produced it.
type Install struct {
	// Rel is the installed relation.  It is immutable: later installs are
	// new relations sharing its untouched structure.
	Rel *eval.Relation
	// Gen numbers the plan's installs: the registration-time answer is 1
	// and every fanned-out install is one more than the previous one, so
	// a listener can name the answer a consumer already holds.  Every
	// handle on a shared plan sees the same numbering.
	Gen uint64
	// Patch takes install Gen-1 to this one (in instantiation order).  It
	// is nil when the plan cannot name the previous install — the first
	// answer after a failed round — and Rel must be taken whole.
	Patch *eval.Delta
}

// Continuous registers a continuous query, evaluating it once — or, when a
// plan with the same canonical key is already maintained, attaching to it
// without any evaluation at all.
func (e *Engine) Continuous(q *ftl.Query, opts Options) (*Continuous, error) {
	nq := ftl.NormalizeQuery(*q)
	key := planKey(&nq, opts)
	h := &Continuous{}
	for {
		e.mu.Lock()
		if p, ok := e.plans[key]; ok {
			p.handles++
			h.sp = p
			e.mu.Unlock()
			<-p.ready
			if p.initErr != nil {
				// The creator's initial evaluation failed and removed the
				// plan; retry (either creating it ourselves and observing
				// the same error, or joining a fresh healthy plan).
				continue
			}
			e.reg().Counter("query.continuous.shared_hits").Inc()
			return h, nil
		}
		p := newPlan(e, key, nq, opts, "query.continuous", source{read: e.currentState})
		p.roi = newROIPlan(p)
		if err := e.start(p, h); err != nil {
			return nil, err
		}
		return h, nil
	}
}

// currentState reads a continuous plan's source: the current database
// version, anchored at its own time.  It holds every object whatever the
// ids; a delta round's read (ids given) is one atomic load and is not
// recorded as a stage of sp.
func (e *Engine) currentState(sp *obs.Span, ids []most.ObjectID) (*most.Snapshot, temporal.Tick, uint64) {
	var s *most.Snapshot
	if ids == nil {
		s = e.snapshot(sp)
	} else {
		s = e.db.Snapshot()
	}
	return s, s.Now(), s.Version()
}

// PlanID identifies the shared plan this handle is attached to: handles
// with equal PlanIDs receive identical answer streams, so downstream
// consumers (the server's push path) can convert each install once per
// plan instead of once per subscriber.
func (cq *Continuous) PlanID() uint64 { return cq.sp.planID }

// Answer returns the materialized Answer(CQ) relation.
func (cq *Continuous) Answer() (*eval.Relation, error) {
	in, err := cq.Installed()
	return in.Rel, err
}

// Installed returns the current install: the materialized Answer(CQ) with
// its install number (Patch is nil).  A consumer that registers a listener
// and then reads Installed receives, through the listener, every install
// numbered above the one returned here, and possibly that one again.
func (cq *Continuous) Installed() (Install, error) {
	p := cq.sp
	p.mu.Lock()
	defer p.mu.Unlock()
	if cq.cancelled.Load() {
		return Install{}, errUnregistered
	}
	return Install{Rel: p.answer, Gen: p.gen}, p.err
}

// Current returns the instantiations presented at tick t: "the system
// presents to the user at each clock-tick t the instantiations of the
// tuples having an interval that contains t" (§3.5).
func (cq *Continuous) Current(t temporal.Tick) ([]Row, error) {
	rel, err := cq.Answer()
	if err != nil {
		return nil, err
	}
	return rowsAt(rel, t), nil
}

// Subscribe registers a listener invoked with the new Answer(CQ) after
// every maintenance round that changes it (full reevaluation or delta
// patch; no-change installs are suppressed).  Coupled with an action this
// is a temporal trigger (§2.3).  On a cancelled handle it reports
// errUnregistered, consistent with Answer, and the listener is dropped.
// A listener added while a maintenance round is in flight observes the
// next install.
func (cq *Continuous) Subscribe(fn func(*eval.Relation)) error {
	return cq.SubscribeInstalls(func(in Install) { fn(in.Rel) })
}

// SubscribeInstalls is Subscribe for consumers that follow the patch
// stream: the listener receives each install with its number and patch,
// in install order.
func (cq *Continuous) SubscribeInstalls(fn func(Install)) error {
	return cq.sp.subscribe(cq, fn)
}

// Cancel unregisters the handle ("until cancelled", §2.3).  The shared
// plan stays alive while other handles remain attached; the last Cancel
// removes it from the engine.
func (cq *Continuous) Cancel() {
	p := cq.sp
	e := p.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.detach(cq) && e.plans[p.key] == p {
		e.removeLocked(p)
	}
}
