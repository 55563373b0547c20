package query

import (
	"sync"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/temporal"
)

// Trigger is a temporal trigger (§2.3): "such a trigger is simply one of
// these two types of queries [continuous or persistent], coupled with an
// action".  The action fires with the instantiations that newly satisfy
// the query, once per distinct instantiation per rising edge.
type Trigger struct {
	cq     *Continuous
	action func([]Row)

	mu    sync.Mutex
	armed map[string]bool
}

// NewTrigger couples a continuous query with an action.  After every
// maintenance reevaluation the engine checks which instantiations satisfy
// the query at the database's current time; newly-satisfying ones are
// reported to the action.  Poll must be called as the clock advances to
// fire edges caused purely by motion (no database update).
func (e *Engine) NewTrigger(q *ftl.Query, opts Options, action func([]Row)) (*Trigger, error) {
	cq, err := e.Continuous(q, opts)
	if err != nil {
		return nil, err
	}
	tr := &Trigger{cq: cq, action: action, armed: map[string]bool{}}
	if err := cq.Subscribe(func(*eval.Relation) { tr.Poll(e.db.Now()) }); err != nil {
		return nil, err
	}
	tr.Poll(e.db.Now())
	return tr, nil
}

// Poll fires the action for instantiations that satisfy the query at tick
// t and did not satisfy it at the previous poll.
func (tr *Trigger) Poll(t temporal.Tick) {
	rows, err := tr.cq.Current(t)
	if err != nil {
		return
	}
	tr.mu.Lock()
	next := map[string]bool{}
	var fresh []Row
	for _, r := range rows {
		key := eval.Key(r)
		next[key] = true
		if !tr.armed[key] {
			fresh = append(fresh, r)
		}
	}
	tr.armed = next
	action := tr.action
	tr.mu.Unlock()
	if len(fresh) > 0 && action != nil {
		action(fresh)
	}
}

// Cancel disables the trigger and its underlying continuous query.
func (tr *Trigger) Cancel() { tr.cq.Cancel() }

// Parse parses a query string; re-exported so callers of this package need
// not import ftl directly.
func Parse(src string) (*ftl.Query, error) { return ftl.Parse(src) }
