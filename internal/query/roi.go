package query

import (
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

// roiPlan is a shared plan's coarse spatial relevance filter: for a class
// whose every FROM-variable is INSIDE-guarded, a tuple binding an object
// of that class can only be satisfied at a tick s if the object is inside
// one of the guard regions at some tick in [s, s+depth].  An update whose
// old AND new motion envelopes over [u.Tick, u.Tick+horizon] both miss the
// union of those regions therefore cannot add, remove, or change any
// answer presentation in the window — dispatch skips the plan entirely.
//
// Skipping is gated three ways for soundness:
//   - the formula must be bounded (analysis.Bounded): an unbounded
//     operator looks past any finite envelope window;
//   - the update's tick must fall inside the installed answer's validity
//     window (u.Tick <= anchor+horizon-depth, tracked in
//     sharedPlan.validUntil): past it the answer must re-anchor, so the
//     update has to be dispatched even if spatially irrelevant;
//   - every FROM-variable over the updated class must be guarded, with
//     every guard region resolvable in Options.Regions at registration.
type roiPlan struct {
	// bounds maps each skippable class to the union bounding box of its
	// guard regions.  Classes absent from the map are never skipped.
	bounds map[string]rect2
}

// any reports whether the plan can skip updates of at least one class.
func (r roiPlan) any() bool { return len(r.bounds) > 0 }

// rect2 is a closed planar box.  geom.Rect is not used here because its
// Intersects also compares Z ranges; motion envelopes are planar.
type rect2 struct {
	minX, minY, maxX, maxY float64
}

func (a rect2) intersects(b rect2) bool {
	return a.minX <= b.maxX && b.minX <= a.maxX &&
		a.minY <= b.maxY && b.minY <= a.maxY
}

func (a rect2) union(b rect2) rect2 {
	if b.minX < a.minX {
		a.minX = b.minX
	}
	if b.minY < a.minY {
		a.minY = b.minY
	}
	if b.maxX > a.maxX {
		a.maxX = b.maxX
	}
	if b.maxY > a.maxY {
		a.maxY = b.maxY
	}
	return a
}

// newROIPlan derives the relevance filter from the plan's prepared query.
// It is conservative: any shape it cannot prove guarded simply yields no
// entry, and the plan then treats every class-relevant update as relevant.
func newROIPlan(p *sharedPlan) roiPlan {
	if !p.analysis.Bounded || p.analysis.Depth > p.opts.horizon() {
		return roiPlan{}
	}
	bounds := map[string]rect2{}
class:
	for class, vars := range p.vars {
		var box rect2
		first := true
		for _, v := range vars {
			regs, ok := guardRegions(p.nq.Where, v)
			if !ok {
				continue class
			}
			for _, name := range regs {
				pg, ok := p.opts.Regions[name]
				if !ok || pg.Len() == 0 {
					continue class
				}
				r := pg.Bounds()
				rb := rect2{minX: r.Min.X, minY: r.Min.Y, maxX: r.Max.X, maxY: r.Max.Y}
				if first {
					box, first = rb, false
				} else {
					box = box.union(rb)
				}
			}
		}
		if !first {
			bounds[class] = box
		}
	}
	if len(bounds) == 0 {
		return roiPlan{}
	}
	return roiPlan{bounds: bounds}
}

// guardRegions reports the region names variable v is INSIDE-guarded by:
// if the (normalized) formula is satisfied at tick s under an
// instantiation binding v to o, then o is inside one of the returned
// regions at some tick in [s, s+depth(f)].  ok=false means no such
// guarantee could be established.
func guardRegions(f ftl.Formula, v string) ([]string, bool) {
	switch n := f.(type) {
	case ftl.Inside:
		vr, okObj := n.Obj.(ftl.Var)
		rn, okReg := n.Region.(ftl.Var)
		if okObj && okReg && vr.Name == v {
			return []string{rn.Name}, true
		}
		return nil, false
	case ftl.And:
		// Either conjunct alone guards the conjunction.
		if regs, ok := guardRegions(n.L, v); ok {
			return regs, true
		}
		return guardRegions(n.R, v)
	case ftl.Or:
		// A disjunction is guarded only if both arms are; the guard is
		// the union of their regions.
		ls, lok := guardRegions(n.L, v)
		if !lok {
			return nil, false
		}
		rs, rok := guardRegions(n.R, v)
		if !rok {
			return nil, false
		}
		return append(ls, rs...), true
	case ftl.Until:
		// f UNTIL g satisfied at s requires g at some reachable tick.
		return guardRegions(n.R, v)
	case ftl.Eventually:
		return guardRegions(n.F, v)
	case ftl.Always:
		// ALWAYS f requires f at s itself.
		return guardRegions(n.F, v)
	case ftl.Nexttime:
		return guardRegions(n.F, v)
	case ftl.Assign:
		if n.Var == v {
			// v is shadowed inside the body; the guard would apply to the
			// assigned value, not the FROM binding.
			return nil, false
		}
		return guardRegions(n.Body, v)
	}
	// Not, Compare, Outside, WithinSphere, BoolLit: satisfaction implies
	// nothing about v's position.
	return nil, false
}

// roiEpsilon inflates the motion envelope before the intersection test so
// an object computed exactly on a region boundary (where trajectory
// arithmetic can land a hair outside, e.g. -2.8e-14 against a boundary at
// 0) is still treated as relevant.  The evaluator's own boundary
// arithmetic rounds the other way at tick resolution; the inflation keeps
// the skip decision conservative.
const roiEpsilon = 1e-6

// motionEnvelope bounds the planar positions reachable by the update's
// old and new revisions over [from, to], inflated by roiEpsilon on every
// side.  ok=false means a revision has no computable planar position
// (non-spatial class, malformed motion); no plan may skip such an update.
func motionEnvelope(u most.Update, from, to temporal.Tick) (rect2, bool) {
	env := rect2{}
	first := true
	for _, o := range [...]*most.Object{u.Before, u.After} {
		if o == nil {
			continue
		}
		pos, err := o.Position()
		if err != nil {
			return rect2{}, false
		}
		var r rect2
		r.minX, r.maxX = pos.X.Range(float64(from), float64(to))
		r.minY, r.maxY = pos.Y.Range(float64(from), float64(to))
		if first {
			env, first = r, false
		} else {
			env = env.union(r)
		}
	}
	if first {
		return rect2{}, false
	}
	env.minX -= roiEpsilon
	env.minY -= roiEpsilon
	env.maxX += roiEpsilon
	env.maxY += roiEpsilon
	return env, true
}
