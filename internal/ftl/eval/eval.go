package eval

import (
	"maps"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/most"
)

// BindDomains populates the context's variable domains from a query's FROM
// clause: each variable ranges over its class's objects in c.Objects, the
// same version the evaluation reads them from.
func (c *Context) BindDomains(q *ftl.Query) error {
	if c.Domains == nil {
		c.Domains = map[string][]Val{}
	}
	if c.classOf == nil {
		c.classOf = make(map[string]string, len(q.Bindings))
		c.indexable = make(map[string]bool, len(q.Bindings))
	}
	for _, b := range q.Bindings {
		if _, dup := c.Domains[b.Var]; dup {
			return errf("variable %q bound twice", b.Var)
		}
		c.classOf[b.Var] = b.Class
		c.indexable[b.Var] = true
		dom := make([]Val, 0, c.Objects.ClassLen(b.Class))
		c.Objects.EachID(b.Class, func(id most.ObjectID) { dom = append(dom, ObjVal(id)) })
		c.Domains[b.Var] = dom
	}
	return nil
}

// EvalQueryPinned evaluates q with the FROM-bound variable pin restricted
// to the single value val, returning Answer(CQ) limited to the tuples whose
// pin column equals val.  It reuses the whole atom/term machinery but
// enumerates only the pinned object's instantiations — the per-object
// entry point behind the query engine's delta maintenance.  The context is
// not modified.
func EvalQueryPinned(q *ftl.Query, c *Context, pin string, val Val) (*Relation, error) {
	if _, ok := c.Domains[pin]; !ok {
		return nil, errf("pinned variable %q has no FROM binding", pin)
	}
	pc := *c
	pc.Domains = make(map[string][]Val, len(c.Domains))
	for k, dom := range c.Domains {
		pc.Domains[k] = dom
	}
	pc.Domains[pin] = []Val{val}
	if pc.indexable[pin] {
		pc.indexable = maps.Clone(c.indexable)
		delete(pc.indexable, pin)
	}
	return EvalQuery(q, &pc)
}

// EvalQuery evaluates a full query and returns Answer(CQ): a relation over
// the target variables whose tuples carry, per instantiation, the interval
// set during which the instantiation satisfies the WHERE formula (§3.5).
// The caller must have populated Domains (directly or via BindDomains).
func EvalQuery(q *ftl.Query, c *Context) (*Relation, error) {
	for _, tgt := range q.Targets {
		if _, ok := c.Domains[tgt]; !ok {
			return nil, errf("target variable %q has no FROM binding", tgt)
		}
	}
	sub := c.Span.Child("subformula_eval")
	rel, err := c.EvalFormula(q.Where)
	sub.End()
	if err != nil {
		return nil, err
	}
	asm := c.Span.Child("answer_assembly")
	out, err := rel.Expand(q.Targets, c.Domains)
	if out != nil {
		asm.Annotate("tuples", int64(out.Len()))
	}
	asm.End()
	return out, err
}
