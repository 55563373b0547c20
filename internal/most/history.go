package most

import (
	"slices"
	"sync"

	"github.com/mostdb/most/internal/temporal"
)

// History is a consistent view of the database's history: the actual past
// (reconstructed from the retained update log) concatenated with the
// implicit future of the current state (§2.2: "each state in the future
// history is identical to the state at time t, except for the value of the
// dynamic attributes").  It is a snapshot — updates committed after History
// was taken do not affect it.  The past reaches back to the oldest live
// HoldHistory; without one, the log is empty and every tick reads as the
// current state.
type History struct {
	cur *Snapshot
	log []Update
}

// HoldHistory starts keeping the update log, for a persistent query
// anchored now, and returns the anchor tick and the function that releases
// the hold.  The anchor and the start of retention are taken under the
// commit lock, so the log holds exactly the updates committed after the
// anchor state.  While any hold is live, every update is kept from the
// oldest live hold on; once the last one is released, the log is dropped
// and nothing more is logged (§2.3: persistent queries "require saving of
// information about the way the database is updated over time" — nothing
// else does).
func (db *Database) HoldHistory() (temporal.Tick, func()) {
	db.mu.Lock()
	defer db.mu.Unlock()
	from := db.version.Load()
	if len(db.holds) == 0 {
		db.logFrom = from
	}
	db.holds = append(db.holds, from)
	return db.now, sync.OnceFunc(func() { db.release(from) })
}

// release drops a hold from update number from on, and the log entries no
// remaining hold needs.
func (db *Database) release(from uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	i := slices.Index(db.holds, from)
	db.holds = slices.Delete(db.holds, i, i+1)
	if len(db.holds) == 0 {
		db.log = nil
	} else if oldest := slices.Min(db.holds); oldest > db.logFrom {
		db.log = slices.Clone(db.log[oldest-db.logFrom:])
		db.logFrom = oldest
	}
}

// History captures the current history view: the current version and the
// retained log, consistent with each other.  It copies nothing.
func (db *Database) History() History {
	db.mu.Lock()
	defer db.mu.Unlock()
	return History{cur: db.publishLocked(), log: db.log[:len(db.log):len(db.log)]}
}

// Now returns the tick at which the view was taken.
func (h History) Now() temporal.Tick { return h.cur.now }

// Updates returns the retained update log in commit order; the slice must
// not be modified.
func (h History) Updates() []Update { return h.log }

// Current returns the current version.
func (h History) Current() *Snapshot { return h.cur }

// RevisionAt returns the revision of object id in effect at tick t, or
// false if the object did not exist then.  For t >= the snapshot time it
// returns the current revision (the future history repeats the current
// state).
func (h History) RevisionAt(id ObjectID, t temporal.Tick) (*Object, bool) {
	return h.RevisionIn(id, h.log, t)
}

// RevisionIn is RevisionAt over ups, a commit-ordered run of the retained
// log holding every retained update of id (the whole log, or just the
// object's own updates).  The revision is the After of the last update to
// id at or before t; failing that, the Before of the first one after t (the log
// starts after the anchor state, so that is the revision that held at t);
// failing that — the object was not updated since — the current revision.
func (h History) RevisionIn(id ObjectID, ups []Update, t temporal.Tick) (*Object, bool) {
	if t < h.cur.now {
		var after *Update
		for i := len(ups) - 1; i >= 0; i-- {
			u := &ups[i]
			if u.Object != id {
				continue
			}
			if u.Tick <= t {
				return u.After, u.After != nil
			}
			after = u
		}
		if after != nil {
			return after.Before, after.Before != nil
		}
	}
	return h.cur.Get(id)
}
