package most

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/pmap"
	"github.com/mostdb/most/internal/temporal"
)

// UpdateKind classifies explicit database updates.
type UpdateKind uint8

// Update kinds.
const (
	UpdateInsert UpdateKind = iota
	UpdateDelete
	UpdateStatic
	UpdateDynamic
)

// Update is one explicit modification of the database: the unit the history
// log records and the event continuous-query maintenance reacts to (§2.3:
// "a continuous query CQ has to be reevaluated when an update occurs that
// may change the set of tuples Answer(CQ)").
type Update struct {
	Tick   temporal.Tick
	Kind   UpdateKind
	Object ObjectID
	Attr   string // set for UpdateStatic/UpdateDynamic
	// Before/After capture the object revisions around the update; Before
	// is nil for inserts, After is nil for deletes.
	Before, After *Object
	// Prov, when non-nil, records which network request committed this
	// update.  It rides into the WAL, which is what lets a restarted server
	// tell how much of a partially applied request survived the crash.
	Prov *Prov
}

// Prov identifies the network request an update was committed on behalf of:
// the client identity, the client's request ID, and the index of the update
// within that request.  The ...Prov mutation variants stamp it into the
// update and the WAL record; recovery surfaces it through WALObserver so a
// server can rebuild its idempotence state after a crash.
type Prov struct {
	Client string `json:"c,omitempty"`
	Req    uint64 `json:"r,omitempty"`
	Op     int    `json:"o,omitempty"`
}

// Listener observes explicit updates, one committed Batch per call: the
// batch's updates in commit order, never empty.  Listeners run
// synchronously on the committing goroutine after the commit lock is
// released, so every update of the batch is already visible to Snapshot.
// All listeners share the slice; none may modify it.  Batches committed by
// different goroutines may notify in either order.
type Listener func([]Update)

// Database is a MOST database: a set of object classes and their current
// objects, and a global discrete clock.  The paper's "database history"
// (§2.2) is implicit: the future comes from the dynamic attributes'
// functions, and the past is logged only while a persistent query holds
// it (HoldHistory).
//
// The database is safe for concurrent use by any number of updaters and
// readers.  We assume instantaneous updates: valid-time equals
// transaction-time (§2.1).
//
// # Commit lock and published versions
//
// Every state change — an explicit update, a Batch, a clock advance, a
// class definition, attaching a WAL, a checkpoint — runs under one commit
// lock, so commits are serial and WAL order is commit order.  The objects
// of each class live in a persistent B+tree (pmap), which the writer edits
// through a long-lived pmap.Txn: nodes the Txn already owns change in
// place, so a run of updates with no reader in between copies nothing.
//
// Readers see published versions (Snapshot).  Snapshot is one atomic load
// when nothing has committed since the last publish; otherwise it takes
// the commit lock, ends each written class's Txn (pmap.Txn.Map) and
// publishes the resulting roots with the clock as a new immutable version.
// A writer's next update under a published node copies that path once, so
// the copying a reader causes is bounded by how often versions are
// published, never by the number of updates.  Publishing under the commit
// lock makes every snapshot a cut between whole commits: a Batch is seen
// entirely or not at all.
type Database struct {
	mu      sync.Mutex
	now     temporal.Tick // under mu; clock mirrors it for Now
	classes []*classTree  // under mu, sorted by class name

	// stale is set by every commit and cleared by a publish (both under
	// mu); Snapshot reads it without the lock.
	stale atomic.Bool
	snap  atomic.Pointer[Snapshot]
	clock atomic.Int64
	// byName is the class registry, replaced wholesale on DefineClass so
	// Class never takes the commit lock (Batch callbacks decode objects).
	byName  atomic.Pointer[map[string]*Class]
	version atomic.Uint64

	listeners []Listener // under mu
	tx        Tx         // the Batch handle, reused under mu

	// The update log (see HoldHistory), all under mu: log[i] is the update
	// numbered logFrom+i in commit order.  holds lists the update number
	// each live hold keeps the log from; with none, nothing is logged.
	holds   []uint64
	logFrom uint64
	log     []Update

	// wal, when attached, receives every class definition, clock advance,
	// and explicit update inside the commit critical section, so WAL order
	// equals commit order.  See wal.go.
	wal atomic.Pointer[WAL]
	// ckptSize is the size of the last checkpoint image, the capacity
	// hint for the next one's buffer.
	ckptSize atomic.Int64

	// obsv holds the pre-resolved observability instruments (see obs.go);
	// nil means uninstrumented.
	obsv atomic.Pointer[dbObs]
}

// classTree is the writer's side of one class: the open Txn over its
// objects, keyed by id, the root it last published, and the class's grid
// index once a probe has asked for one (see grid.go).
type classTree struct {
	class *Class
	txn   *pmap.Txn[string, *Object]
	root  pmap.Map[string, *Object]
	dirty bool // written since root was published
	grid  *gridIndex
}

// NewDatabase returns an empty database with the clock at tick 0.
func NewDatabase() *Database {
	db := &Database{}
	db.tx.db = db
	db.byName.Store(&map[string]*Class{})
	db.snap.Store(&Snapshot{})
	return db
}

// Now returns the current tick of the special "time" object.  Safe for
// concurrent use.
func (db *Database) Now() temporal.Tick { return temporal.Tick(db.clock.Load()) }

// Tick advances the clock by one (its value "increases by one in each clock
// tick", §2) and returns the new time.
func (db *Database) Tick() temporal.Tick { return db.Advance(1) }

// Advance moves the clock forward by d ticks and returns the new time.  It
// is a commit: no update is ever stamped with a tick other than the one
// its revision was computed at.
func (db *Database) Advance(d temporal.Tick) temporal.Tick { return db.advance(d, nil) }

// AdvanceProv is Advance stamped with request provenance (see Prov).
func (db *Database) AdvanceProv(d temporal.Tick, p *Prov) temporal.Tick { return db.advance(d, p) }

func (db *Database) advance(d temporal.Tick, p *Prov) temporal.Tick {
	if d < 0 {
		panic("most: the clock cannot run backwards")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if d > 0 {
		db.now = db.now.Add(d)
		db.clock.Store(int64(db.now))
		db.stale.Store(true)
		for _, t := range db.classes {
			if t.grid != nil {
				t.grid.extend(db.now, t.txn)
			}
		}
	}
	if w := db.wal.Load(); w != nil {
		w.append(&walRecord{kind: recClock, now: db.now, prov: p})
	}
	return db.now
}

// DefineClass registers an object class.
func (db *Database) DefineClass(c *Class) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	old := *db.byName.Load()
	if _, dup := old[c.Name()]; dup {
		return fmt.Errorf("most: class %s already defined", c.Name())
	}
	m := maps.Clone(old)
	m[c.Name()] = c
	db.byName.Store(&m)
	i, _ := slices.BinarySearchFunc(db.classes, c.name, func(t *classTree, name string) int {
		return cmp.Compare(t.class.name, name)
	})
	db.classes = slices.Insert(db.classes, i, &classTree{class: c, txn: pmap.Map[string, *Object]{}.Edit()})
	db.stale.Store(true)
	if w := db.wal.Load(); w != nil {
		w.append(&walRecord{kind: recClass, class: c})
	}
	return nil
}

// Class looks up a class by name.  It never waits for a commit, so a Batch
// callback may call it.
func (db *Database) Class(name string) (*Class, bool) {
	c, ok := (*db.byName.Load())[name]
	return c, ok
}

// Subscribe registers a listener for explicit updates, called once per
// committed Batch (see Listener).
func (db *Database) Subscribe(l Listener) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.listeners = append(db.listeners, l)
}

// findLocked returns the tree holding object id and its current revision.
func (db *Database) findLocked(id ObjectID) (*classTree, *Object) {
	for _, t := range db.classes {
		if o, ok := t.txn.Get(string(id)); ok {
			return t, o
		}
	}
	return nil, nil
}

// Tx applies the updates of one Batch; it is valid only inside the Batch
// callback.
type Tx struct {
	db  *Database
	ups []Update
}

// commit counts, logs (while history is held) and write-ahead-logs one
// update applied to tree t.  The WAL append happens under the commit lock,
// so the WAL sees updates in commit order.  It only reaches the OS page
// cache: a process crash after this point loses nothing, but surviving a
// machine crash (power loss) additionally requires WAL.Sync — callers
// choose how often to pay for that.
func (tx *Tx) commit(t *classTree, u Update) error {
	db := tx.db
	t.dirty = true
	if t.grid != nil {
		t.grid.apply(u, db.now)
	}
	db.stale.Store(true)
	db.version.Add(1)
	if len(db.holds) > 0 {
		db.log = append(db.log, u)
	}
	if w := db.wal.Load(); w != nil {
		w.append(&walRecord{kind: recUpdate, upd: u, prov: u.Prov})
	}
	tx.ups = append(tx.ups, u)
	return nil
}

// Insert adds a new object; p stamps request provenance (nil for none).
func (tx *Tx) Insert(o *Object, p *Prov) error {
	db := tx.db
	if t, _ := db.findLocked(o.id); t != nil {
		return fmt.Errorf("most: object %s already exists", o.id)
	}
	for _, t := range db.classes {
		if t.class == o.class {
			t.txn.Set(string(o.id), o)
			return tx.commit(t, Update{Tick: db.now, Kind: UpdateInsert, Object: o.id, After: o, Prov: p})
		}
	}
	return fmt.Errorf("most: class %s of object %s is not defined in this database", o.class.Name(), o.id)
}

// Delete removes an object.
func (tx *Tx) Delete(id ObjectID, p *Prov) error {
	t, o := tx.db.findLocked(id)
	if t == nil {
		return fmt.Errorf("most: object %s does not exist", id)
	}
	t.txn.Delete(string(id))
	return tx.commit(t, Update{Tick: tx.db.now, Kind: UpdateDelete, Object: id, Before: o, Prov: p})
}

// SetStatic updates a static attribute (see Database.SetStatic).
func (tx *Tx) SetStatic(id ObjectID, attr string, v Value, p *Prov) error {
	return tx.mutate(id, UpdateStatic, attr, p, func(o *Object, _ temporal.Tick) (*Object, error) {
		return o.WithStatic(attr, v)
	})
}

// SetMotion updates a spatial object's motion vector (see
// Database.SetMotion).
func (tx *Tx) SetMotion(id ObjectID, v geom.Vector, p *Prov) error {
	return tx.mutate(id, UpdateDynamic, XPosition, p, func(o *Object, now temporal.Tick) (*Object, error) {
		pos, err := o.Position()
		if err != nil {
			return nil, err
		}
		return o.WithPosition(pos.Retarget(now, v))
	})
}

// mutate applies fn to the object's current revision and commits the
// result as an explicit update.
func (tx *Tx) mutate(id ObjectID, kind UpdateKind, attr string, p *Prov, fn func(o *Object, now temporal.Tick) (*Object, error)) error {
	t, o := tx.db.findLocked(id)
	if t == nil {
		return fmt.Errorf("most: object %s does not exist", id)
	}
	next, err := fn(o, tx.db.now)
	if err != nil {
		return err
	}
	t.txn.Set(string(id), next)
	return tx.commit(t, Update{Tick: tx.db.now, Kind: kind, Object: id, Attr: attr, Before: o, After: next, Prov: p})
}

// Batch runs fn under the commit lock and commits its updates as one unit:
// no snapshot sees some of them without the others, and each listener is
// called once with all of them, in order, once all are visible (not at
// all when fn committed nothing).  An update that fails does not undo the
// ones before it: Batch returns fn's error with those committed.  fn must
// not call other methods of the database (Class excepted); the Tx carries
// everything a batch needs.  Every single-update method is a one-update
// Batch.
func (db *Database) Batch(fn func(tx *Tx) error) error {
	dob := db.obsv.Load()
	t0 := dob.start()
	db.mu.Lock()
	tx := &db.tx
	err := fn(tx)
	n, ls := len(tx.ups), db.listeners
	var ups []Update
	if len(ls) > 0 && n > 0 {
		ups = slices.Clone(tx.ups)
	}
	clear(tx.ups) // the buffer is reused; drop its revisions
	tx.ups = tx.ups[:0]
	db.mu.Unlock()
	dob.commitDone(t0, n)
	if ups != nil {
		for _, l := range ls {
			l(ups)
		}
	}
	return err
}

// Insert adds a new object.
func (db *Database) Insert(o *Object) error { return db.InsertProv(o, nil) }

// InsertProv is Insert stamped with request provenance (see Prov).
func (db *Database) InsertProv(o *Object, p *Prov) error {
	return db.Batch(func(tx *Tx) error { return tx.Insert(o, p) })
}

// Delete removes an object.
func (db *Database) Delete(id ObjectID) error {
	return db.Batch(func(tx *Tx) error { return tx.Delete(id, nil) })
}

// Get returns the current revision of the object.
func (db *Database) Get(id ObjectID) (*Object, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, o := db.findLocked(id)
	return o, o != nil
}

// Objects returns the current revisions of all objects of a class, or of
// every class with class == "", sorted by id.
func (db *Database) Objects(class string) []*Object { return db.Snapshot().Objects(class) }

// Snapshot returns the current published version of the database: an
// immutable, internally consistent view that updaters never change.
// Query evaluation runs against snapshots, which is what lets explicit
// updates and query evaluation proceed simultaneously.  It costs one
// atomic load, or a publish (see Database) when something committed since
// the last one.
func (db *Database) Snapshot() *Snapshot {
	db.obsv.Load().snapshotDone()
	if !db.stale.Load() {
		return db.snap.Load()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.publishLocked()
}

// publishLocked publishes the writer's state as a new version if anything
// committed since the last one, and returns the current version.
func (db *Database) publishLocked() *Snapshot {
	if !db.stale.Load() {
		return db.snap.Load()
	}
	s := &Snapshot{now: db.now, version: db.version.Load(), classes: make([]classRoot, len(db.classes)), db: db}
	for i, t := range db.classes {
		if t.dirty {
			t.root, t.dirty = t.txn.Map(), false
		}
		s.classes[i] = classRoot{class: t.class, objs: t.root, grid: t.grid.view(db.now)}
	}
	db.snap.Store(s)
	db.stale.Store(false)
	db.obsv.Load().published()
	return s
}

// indexFor makes sure the spatial class is indexed for windows reaching
// need ticks past the current time: the first call builds the class's
// grid index from its current objects, a later one with a wider need
// widens the coverage of every object, up to gridMaxSlices slices.
// Snapshots published afterwards carry the index; see grid.go.
func (db *Database) indexFor(class string, need temporal.Tick) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.classes {
		if t.class.name != class || !t.class.spatial {
			continue
		}
		switch {
		case t.grid == nil:
			t.grid = newGridIndex(t.txn.Map(), db.now, need, &db.obsv)
			t.dirty = true // the Map above ended the objects' batch
			db.obsv.Load().indexActivated()
		case need > t.grid.horizon && need <= (gridMaxSlices-2)*t.grid.slice:
			t.grid.horizon = need
			t.grid.extend(db.now, t.txn)
		default:
			return
		}
		db.stale.Store(true)
		return
	}
}

// Count returns the number of live objects (all classes).
func (db *Database) Count() int { return db.Snapshot().Len() }

// Version returns the number of committed explicit updates.  It increases
// monotonically; continuous/persistent maintenance uses it to discard stale
// reevaluation results under concurrent updates.
func (db *Database) Version() uint64 { return db.version.Load() }

// SetStatic explicitly updates a static attribute at the current time.
func (db *Database) SetStatic(id ObjectID, attr string, v Value) error {
	return db.Batch(func(tx *Tx) error { return tx.SetStatic(id, attr, v, nil) })
}

// SetDynamic explicitly updates a dynamic attribute's sub-attributes at the
// current time ("an explicit update of a dynamic attribute may change its
// value sub-attribute, or its function sub-attribute, or both", §2.1).
func (db *Database) SetDynamic(id ObjectID, attr string, a motion.DynamicAttr) error {
	return db.Batch(func(tx *Tx) error {
		return tx.mutate(id, UpdateDynamic, attr, nil, func(o *Object, _ temporal.Tick) (*Object, error) {
			return o.WithDynamic(attr, a)
		})
	})
}

// UpdateFunction re-bases the dynamic attribute to its current value and
// installs a new function — the motion-vector update a vehicle's sensor
// issues "when it senses a change in speed or direction" (§1).
func (db *Database) UpdateFunction(id ObjectID, attr string, f motion.Func) error {
	return db.Batch(func(tx *Tx) error {
		return tx.mutate(id, UpdateDynamic, attr, nil, func(o *Object, now temporal.Tick) (*Object, error) {
			cur, err := o.Dynamic(attr)
			if err != nil {
				return nil, err
			}
			return o.WithDynamic(attr, cur.Updated(now, f))
		})
	})
}

// SetMotion updates a spatial object's motion vector at the current time,
// keeping its position continuous.
func (db *Database) SetMotion(id ObjectID, v geom.Vector) error {
	return db.SetMotionProv(id, v, nil)
}

// SetMotionProv is SetMotion stamped with request provenance (see Prov).
func (db *Database) SetMotionProv(id ObjectID, v geom.Vector, p *Prov) error {
	return db.Batch(func(tx *Tx) error { return tx.SetMotion(id, v, p) })
}
