package most

import (
	"cmp"
	"slices"

	"github.com/mostdb/most/internal/pmap"
	"github.com/mostdb/most/internal/temporal"
)

// Snapshot is one version of the database: the clock and every object of
// every class as of one commit (Database.Snapshot), or a standalone set of
// object revisions (NewSnapshot).  It never changes, so any number of
// readers may use it while updaters keep committing.  It is the one object
// lookup query evaluation reads through.
type Snapshot struct {
	now     temporal.Tick
	version uint64
	classes []classRoot // sorted by class name
}

// classRoot is one class's objects in a snapshot, keyed by id.
type classRoot struct {
	class *Class
	objs  pmap.Map[*Object]
}

// NewSnapshot builds a standalone snapshot at tick now holding objs, whose
// ids must be distinct.
func NewSnapshot(now temporal.Tick, objs ...*Object) *Snapshot {
	sorted := slices.Clone(objs)
	slices.SortFunc(sorted, func(a, b *Object) int {
		return cmp.Or(cmp.Compare(a.class.name, b.class.name), cmp.Compare(a.id, b.id))
	})
	s := &Snapshot{now: now}
	for i := 0; i < len(sorted); {
		c := sorted[i].class
		var keys []string
		var vals []*Object
		for ; i < len(sorted) && sorted[i].class.name == c.name; i++ {
			keys = append(keys, string(sorted[i].id))
			vals = append(vals, sorted[i])
		}
		s.classes = append(s.classes, classRoot{class: c, objs: pmap.FromSorted(keys, vals)})
	}
	return s
}

// Now returns the clock of the version.
func (s *Snapshot) Now() temporal.Tick { return s.now }

// Version returns Database.Version as of the snapshot.
func (s *Snapshot) Version() uint64 { return s.version }

// Get returns the revision of object id.
func (s *Snapshot) Get(id ObjectID) (*Object, bool) {
	for _, c := range s.classes {
		if o, ok := c.objs.Get(string(id)); ok {
			return o, true
		}
	}
	return nil, false
}

// GetIn is Get for an object the caller expects to be of class: it probes
// that class's objects first, so the lookup costs one tree probe when the
// expectation holds.  Ids are unique across classes, so the answer is
// always Get's.
func (s *Snapshot) GetIn(class string, id ObjectID) (*Object, bool) {
	for _, c := range s.classes {
		if c.class.name == class {
			if o, ok := c.objs.Get(string(id)); ok {
				return o, true
			}
			break
		}
	}
	return s.Get(id)
}

// Len returns the number of objects.
func (s *Snapshot) Len() int {
	n := 0
	for _, c := range s.classes {
		n += c.objs.Len()
	}
	return n
}

// Objects returns the objects of a class, or of every class with
// class == "", sorted by id.
func (s *Snapshot) Objects(class string) []*Object {
	var lists [][]*Object
	for _, c := range s.classes {
		if class == "" || c.class.name == class {
			l := make([]*Object, 0, c.objs.Len())
			c.objs.Ascend(func(_ string, o *Object) bool {
				l = append(l, o)
				return true
			})
			lists = append(lists, l)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	// Merge the classes' id-ordered lists.
	out := make([]*Object, 0, s.Len())
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0].id < lists[best][0].id) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}
