package most

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
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

// Listener observes explicit updates.  Listeners run synchronously on the
// updater's goroutine, after every lock has been released.  When updates
// are issued from a single goroutine, listeners observe them in commit
// order; concurrent updaters may interleave their notifications (each
// notification still carries a consistent Before/After pair).
type Listener func(Update)

// objShardCount is the number of object shards.  A fixed power of two keeps
// shardFor branch-free; 16 shards suffice to spread update traffic across
// many more cores than that, because each shard lock is held only for the
// few instructions of one revision swap.
const objShardCount = 16

// objShard is one slice of the object map with its own lock, so updates to
// objects in different shards never contend.
type objShard struct {
	mu      sync.RWMutex
	objects map[ObjectID]*Object
}

// Database is a MOST database: a set of object classes and their current
// objects, a global discrete clock, and a log of explicit updates.  The
// paper's "database history" (§2.2) is implicit: the past is reconstructed
// from the log, and the future from the dynamic attributes' functions.
//
// The database is safe for concurrent use by any number of updaters and
// readers.  We assume instantaneous updates: valid-time equals
// transaction-time (§2.1).
//
// # Locking discipline
//
// Objects live in objShardCount shards hashed by id, each under its own
// RWMutex, so explicit updates to distinct objects proceed in parallel and
// readers never block readers.  Four locks exist, and every code path that
// holds more than one acquires them in this fixed order (releases may
// happen in any order):
//
//	clockMu (read)  <  shard.mu (ascending shard index)  <  metaMu  <  logMu
//
// clockMu guards the clock.  Every update holds it shared for the whole
// operation so the clock cannot advance between the tick an update is
// stamped with and the tick its revision is rebased at; Advance takes it
// exclusively and therefore serializes against in-flight updates, which
// keeps the log sorted by tick.  metaMu guards the class registry and the
// per-class membership lists.  logMu guards the update log and the
// listener registry; because an updater still holds its shard lock while
// appending to the log, any reader holding all shard locks (History,
// SnapshotJSON) observes object state and log atomically consistent.
//
// Object revisions themselves are immutable: reads taken under a shard
// read-lock remain valid — and internally consistent — after the lock is
// released (copy-on-read snapshot semantics).  Snapshot and History hand
// out such stable views for query evaluation.
type Database struct {
	clockMu sync.RWMutex
	now     temporal.Tick

	shards [objShardCount]objShard

	metaMu  sync.RWMutex
	classes map[string]*Class
	byClass map[string][]ObjectID

	logMu     sync.Mutex
	log       []Update
	listeners []Listener

	// wal, when attached, receives every class definition, clock advance,
	// and explicit update inside the respective commit critical section, so
	// WAL order equals commit order.  See wal.go.
	wal atomic.Pointer[WAL]
	// ckptSize is the size of the last checkpoint image, the capacity
	// hint for the next one's buffer.
	ckptSize atomic.Int64

	// obsv holds the pre-resolved observability instruments (see obs.go);
	// nil means uninstrumented.
	obsv atomic.Pointer[dbObs]
}

// shardSeed is the process-wide seed for the shard hash.
var shardSeed = maphash.MakeSeed()

func (db *Database) shardFor(id ObjectID) *objShard {
	return &db.shards[maphash.String(shardSeed, string(id))&(objShardCount-1)]
}

// NewDatabase returns an empty database with the clock at tick 0.
func NewDatabase() *Database {
	db := &Database{
		classes: map[string]*Class{},
		byClass: map[string][]ObjectID{},
	}
	for i := range db.shards {
		db.shards[i].objects = map[ObjectID]*Object{}
	}
	return db
}

// Now returns the current tick of the special "time" object.  Safe for
// concurrent use.
func (db *Database) Now() temporal.Tick {
	db.clockMu.RLock()
	defer db.clockMu.RUnlock()
	return db.now
}

// Tick advances the clock by one (its value "increases by one in each clock
// tick", §2) and returns the new time.
func (db *Database) Tick() temporal.Tick { return db.Advance(1) }

// Advance moves the clock forward by d ticks and returns the new time.  It
// waits for in-flight updates, so no update is ever stamped with a tick
// other than the one its revisions were computed at.
func (db *Database) Advance(d temporal.Tick) temporal.Tick { return db.advance(d, nil) }

// AdvanceProv is Advance stamped with request provenance (see Prov).
func (db *Database) AdvanceProv(d temporal.Tick, p *Prov) temporal.Tick { return db.advance(d, p) }

func (db *Database) advance(d temporal.Tick, p *Prov) temporal.Tick {
	if d < 0 {
		panic("most: the clock cannot run backwards")
	}
	db.clockMu.Lock()
	defer db.clockMu.Unlock()
	db.now = db.now.Add(d)
	if w := db.wal.Load(); w != nil {
		w.appendClock(db.now, p)
	}
	return db.now
}

// DefineClass registers an object class.
func (db *Database) DefineClass(c *Class) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if _, dup := db.classes[c.Name()]; dup {
		return fmt.Errorf("most: class %s already defined", c.Name())
	}
	db.classes[c.Name()] = c
	if w := db.wal.Load(); w != nil {
		w.appendClass(c)
	}
	return nil
}

// Class looks up a class by name.
func (db *Database) Class(name string) (*Class, bool) {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	c, ok := db.classes[name]
	return c, ok
}

// Subscribe registers a listener for explicit updates.
func (db *Database) Subscribe(l Listener) {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	db.listeners = append(db.listeners, l)
}

// appendLog stamps the update into the log and returns the listener list to
// notify.  The caller must still hold the object's shard lock (so state and
// log commit atomically with respect to History) and must notify only after
// releasing every lock.
func (db *Database) appendLog(u Update) []Listener {
	db.logMu.Lock()
	db.log = append(db.log, u)
	ls := db.listeners
	if w := db.wal.Load(); w != nil {
		// Written before the shard lock is released, so the WAL sees
		// updates in commit order.  The append only reaches the OS page
		// cache: a process crash after this point loses nothing, but
		// surviving a machine crash (power loss) additionally requires
		// WAL.Sync — callers choose how often to pay for that.
		w.appendUpdate(u)
	}
	db.logMu.Unlock()
	return ls
}

// Insert adds a new object.
func (db *Database) Insert(o *Object) error { return db.insert(o, nil) }

// InsertProv is Insert stamped with request provenance (see Prov).
func (db *Database) InsertProv(o *Object, p *Prov) error { return db.insert(o, p) }

func (db *Database) insert(o *Object, prov *Prov) error {
	dob := db.obsv.Load()
	t0 := dob.start()
	db.clockMu.RLock()
	s := db.shardFor(o.id)
	s.mu.Lock()
	if _, dup := s.objects[o.id]; dup {
		s.mu.Unlock()
		db.clockMu.RUnlock()
		return fmt.Errorf("most: object %s already exists", o.id)
	}
	db.metaMu.Lock()
	if db.classes[o.class.Name()] != o.class {
		db.metaMu.Unlock()
		s.mu.Unlock()
		db.clockMu.RUnlock()
		return fmt.Errorf("most: class %s of object %s is not defined in this database", o.class.Name(), o.id)
	}
	db.byClass[o.class.Name()] = append(db.byClass[o.class.Name()], o.id)
	db.metaMu.Unlock()
	s.objects[o.id] = o
	u := Update{Tick: db.now, Kind: UpdateInsert, Object: o.id, After: o, Prov: prov}
	ls := db.appendLog(u)
	s.mu.Unlock()
	db.clockMu.RUnlock()
	dob.commitDone(t0)
	notify(ls, u)
	return nil
}

// Delete removes an object.
func (db *Database) Delete(id ObjectID) error { return db.delete(id, nil) }

// DeleteProv is Delete stamped with request provenance (see Prov).
func (db *Database) DeleteProv(id ObjectID, p *Prov) error { return db.delete(id, p) }

func (db *Database) delete(id ObjectID, prov *Prov) error {
	dob := db.obsv.Load()
	t0 := dob.start()
	db.clockMu.RLock()
	s := db.shardFor(id)
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		db.clockMu.RUnlock()
		return fmt.Errorf("most: object %s does not exist", id)
	}
	delete(s.objects, id)
	db.metaMu.Lock()
	ids := db.byClass[o.class.Name()]
	for i, cand := range ids {
		if cand == id {
			db.byClass[o.class.Name()] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	db.metaMu.Unlock()
	u := Update{Tick: db.now, Kind: UpdateDelete, Object: id, Before: o, Prov: prov}
	ls := db.appendLog(u)
	s.mu.Unlock()
	db.clockMu.RUnlock()
	dob.commitDone(t0)
	notify(ls, u)
	return nil
}

func notify(ls []Listener, u Update) {
	for _, l := range ls {
		l(u)
	}
}

// mutate applies fn to the object's current revision and commits the result
// as an explicit update, under the locking discipline described on
// Database.
func (db *Database) mutate(id ObjectID, kind UpdateKind, attr string, prov *Prov, fn func(o *Object, now temporal.Tick) (*Object, error)) error {
	dob := db.obsv.Load()
	t0 := dob.start()
	db.clockMu.RLock()
	now := db.now
	s := db.shardFor(id)
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		db.clockMu.RUnlock()
		return fmt.Errorf("most: object %s does not exist", id)
	}
	next, err := fn(o, now)
	if err != nil {
		s.mu.Unlock()
		db.clockMu.RUnlock()
		return err
	}
	s.objects[id] = next
	u := Update{Tick: now, Kind: kind, Object: id, Attr: attr, Before: o, After: next, Prov: prov}
	ls := db.appendLog(u)
	s.mu.Unlock()
	db.clockMu.RUnlock()
	dob.commitDone(t0)
	notify(ls, u)
	return nil
}

// Get returns the current revision of the object.
func (db *Database) Get(id ObjectID) (*Object, bool) {
	s := db.shardFor(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	return o, ok
}

// Objects returns the current revisions of all objects of a class, in
// insertion order.  With class == "" it returns every object, sorted by id.
func (db *Database) Objects(class string) []*Object {
	if class != "" {
		db.metaMu.RLock()
		ids := make([]ObjectID, len(db.byClass[class]))
		copy(ids, db.byClass[class])
		db.metaMu.RUnlock()
		out := make([]*Object, 0, len(ids))
		for _, id := range ids {
			// An object may be deleted between the membership copy and the
			// shard read; skip it rather than return a nil revision.
			if o, ok := db.Get(id); ok {
				out = append(out, o)
			}
		}
		return out
	}
	var out []*Object
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for _, o := range s.objects {
			out = append(out, o)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Snapshot returns a copy-on-read view of every current object revision.
// The returned map is owned by the caller; the *Object revisions in it are
// immutable, so the view stays internally consistent while updaters keep
// committing.  Query evaluation runs against such snapshots, which is what
// lets explicit updates and query evaluation proceed simultaneously.
func (db *Database) Snapshot() map[ObjectID]*Object {
	out := make(map[ObjectID]*Object, db.Count())
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for id, o := range s.objects {
			out[id] = o
		}
		s.mu.RUnlock()
	}
	db.obsv.Load().snapshotDone(len(out))
	return out
}

// Count returns the number of live objects (all classes).
func (db *Database) Count() int {
	n := 0
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		n += len(s.objects)
		s.mu.RUnlock()
	}
	return n
}

// Version returns the number of committed explicit updates.  It increases
// monotonically; continuous/persistent maintenance uses it to discard stale
// reevaluation results under concurrent updates.
func (db *Database) Version() uint64 {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	return uint64(len(db.log))
}

// SetStatic explicitly updates a static attribute at the current time.
func (db *Database) SetStatic(id ObjectID, attr string, v Value) error {
	return db.SetStaticProv(id, attr, v, nil)
}

// SetStaticProv is SetStatic stamped with request provenance (see Prov).
func (db *Database) SetStaticProv(id ObjectID, attr string, v Value, p *Prov) error {
	return db.mutate(id, UpdateStatic, attr, p, func(o *Object, _ temporal.Tick) (*Object, error) {
		return o.WithStatic(attr, v)
	})
}

// SetDynamic explicitly updates a dynamic attribute's sub-attributes at the
// current time ("an explicit update of a dynamic attribute may change its
// value sub-attribute, or its function sub-attribute, or both", §2.1).
func (db *Database) SetDynamic(id ObjectID, attr string, a motion.DynamicAttr) error {
	return db.mutate(id, UpdateDynamic, attr, nil, func(o *Object, _ temporal.Tick) (*Object, error) {
		return o.WithDynamic(attr, a)
	})
}

// UpdateFunction re-bases the dynamic attribute to its current value and
// installs a new function — the motion-vector update a vehicle's sensor
// issues "when it senses a change in speed or direction" (§1).
func (db *Database) UpdateFunction(id ObjectID, attr string, f motion.Func) error {
	return db.mutate(id, UpdateDynamic, attr, nil, func(o *Object, now temporal.Tick) (*Object, error) {
		cur, err := o.Dynamic(attr)
		if err != nil {
			return nil, err
		}
		return o.WithDynamic(attr, cur.Updated(now, f))
	})
}

// SetMotion updates a spatial object's motion vector at the current time,
// keeping its position continuous.
func (db *Database) SetMotion(id ObjectID, v geom.Vector) error {
	return db.SetMotionProv(id, v, nil)
}

// SetMotionProv is SetMotion stamped with request provenance (see Prov).
func (db *Database) SetMotionProv(id ObjectID, v geom.Vector, p *Prov) error {
	return db.mutate(id, UpdateDynamic, XPosition, p, func(o *Object, now temporal.Tick) (*Object, error) {
		pos, err := o.Position()
		if err != nil {
			return nil, err
		}
		return o.WithPosition(pos.Retarget(now, v))
	})
}

// Log returns a copy of the explicit-update log since the beginning of the
// database's life; persistent queries replay it (§2.3: "the evaluation of
// persistent queries requires saving of information about the way the
// database is updated over time").
func (db *Database) Log() []Update {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	out := make([]Update, len(db.log))
	copy(out, db.log)
	return out
}

// LogSince returns the log entries with Tick >= t.
func (db *Database) LogSince(t temporal.Tick) []Update {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	i := sort.Search(len(db.log), func(i int) bool { return db.log[i].Tick >= t })
	out := make([]Update, len(db.log)-i)
	copy(out, db.log[i:])
	return out
}

// lockAllRead acquires the clock and every shard in the documented order,
// giving the caller a fully consistent read view; release with
// unlockAllRead.  While held, no update can commit.
func (db *Database) lockAllRead() {
	db.clockMu.RLock()
	for i := range db.shards {
		db.shards[i].mu.RLock()
	}
}

func (db *Database) unlockAllRead() {
	for i := range db.shards {
		db.shards[i].mu.RUnlock()
	}
	db.clockMu.RUnlock()
}
