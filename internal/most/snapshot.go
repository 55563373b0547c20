package most

import (
	"cmp"
	"slices"

	"github.com/mostdb/most/internal/geom"
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
	db      *Database   // the database that published it; nil if standalone
}

// classRoot is one class's objects in a snapshot, keyed by id, and the
// class's grid index as of the same commit (zero when not indexed).
type classRoot struct {
	class *Class
	objs  pmap.Map[string, *Object]
	grid  gridView
}

// NewSnapshot builds a standalone snapshot at tick now holding objs, whose
// ids must be distinct.  It carries no index: Candidates on it always
// reports that the caller must scan.
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

// ClassLen returns the number of objects of class.
func (s *Snapshot) ClassLen(class string) int {
	for _, c := range s.classes {
		if c.class.name == class {
			return c.objs.Len()
		}
	}
	return 0
}

// EachID calls fn with the id of every object of class in ascending
// order, reading no object revision.
func (s *Snapshot) EachID(class string, fn func(ObjectID)) {
	for _, c := range s.classes {
		if c.class.name == class {
			c.objs.Ascend(func(k string, _ *Object) bool {
				fn(ObjectID(k))
				return true
			})
		}
	}
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

// Candidates returns, in id order, the objects of class whose trajectory
// may meet rectangle r (in the plane) at some instant of window w: a
// superset of the objects inside r at some tick of w, drawn from the
// class's grid index as of this snapshot's commit.  covered is false when
// the snapshot cannot answer — a standalone snapshot, a class not yet
// indexed, a window its coverage does not reach, a rectangle too wide —
// and the caller must examine every object.  A database snapshot that
// misses for want of an index or of coverage asks the database to index
// the class or widen its coverage, so that later snapshots can answer.
func (s *Snapshot) Candidates(class string, r geom.Rect, w temporal.Interval) (ids []ObjectID, covered bool) {
	for i := range s.classes {
		c := &s.classes[i]
		if c.class.name != class {
			continue
		}
		if s.db == nil || !c.class.spatial || w.Start < s.now {
			return nil, false
		}
		if c.grid.side == 0 || w.End > c.grid.until {
			s.db.indexFor(class, w.End-s.now)
			return nil, false
		}
		return c.grid.candidates(r, w)
	}
	return nil, false
}
