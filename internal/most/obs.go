package most

import (
	"time"

	"github.com/mostdb/most/internal/obs"
)

// This file is the database's observability attachment.  The instruments
// are pre-resolved once at Instrument time and held behind an atomic
// pointer, so the commit hot path pays a single pointer load plus one nil
// branch when observability is off — never a map lookup or a lock.
//
// Metric names:
//
//	db.commits              explicit updates committed (inserts, deletes, mutations)
//	db.commit_ns            commit latency (one single update or one Batch):
//	                        entry to the release of the commit lock
//	db.snapshots            Snapshot() calls
//	db.publishes            versions published (Snapshot calls that found
//	                        new commits; each may make later writes copy a path)
//	wal.appends / wal.append_ns   WAL record writes and their latency
//	wal.flushes                   group-commit batch writes (syscalls)
//	wal.syncs / wal.sync_ns       explicit fsyncs and their latency
//	most.checkpoint_bytes   size of the latest checkpoint image written
//	most.index.activations  classes whose grid index was built (grid.go)
//	most.index.writes       grid index entries inserted or deleted
//	most.index.extensions   objects whose index coverage a clock advance
//	                        or a wider probe extended

// dbObs is the database's pre-resolved instrument set.
type dbObs struct {
	reg       *obs.Registry
	commits   *obs.Counter
	commitNs  *obs.Histogram
	snapshots *obs.Counter
	publishes *obs.Counter
	ckptBytes *obs.Gauge
	idxActs   *obs.Counter
	idxWrites *obs.Counter
	idxExts   *obs.Counter
}

// start returns the commit start time, or the zero time when disabled (so
// the clock is not read at all on the uninstrumented path).
func (o *dbObs) start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// commitDone records a commit of n updates and its latency.
func (o *dbObs) commitDone(t0 time.Time, n int) {
	if o == nil {
		return
	}
	o.commits.Add(int64(n))
	o.commitNs.Since(t0)
}

// snapshotDone records one Snapshot call.
func (o *dbObs) snapshotDone() {
	if o != nil {
		o.snapshots.Inc()
	}
}

// published records one published version.
func (o *dbObs) published() {
	if o != nil {
		o.publishes.Inc()
	}
}

// indexActivated records one class index built.
func (o *dbObs) indexActivated() {
	if o != nil {
		o.idxActs.Inc()
	}
}

// indexWrites records n index entries written.
func (o *dbObs) indexWrites(n int) {
	if o != nil {
		o.idxWrites.Add(int64(n))
	}
}

// indexExtensions records n objects whose coverage was extended.
func (o *dbObs) indexExtensions(n int) {
	if o != nil && n > 0 {
		o.idxExts.Add(int64(n))
	}
}

// checkpointDone records the size of a checkpoint image just written.
func (o *dbObs) checkpointDone(n int) {
	if o == nil {
		return
	}
	o.ckptBytes.Set(int64(n))
}

// Instrument attaches an observability registry to the database: commits,
// snapshots and published versions, and (if a WAL is attached now or later) WAL append/fsync
// timings are recorded into it.  Instrument(nil) detaches.  Safe to call
// concurrently with commits.
func (db *Database) Instrument(reg *obs.Registry) {
	if reg == nil {
		db.obsv.Store(nil)
	} else {
		db.obsv.Store(&dbObs{
			reg:       reg,
			commits:   reg.Counter("db.commits"),
			commitNs:  reg.Histogram("db.commit_ns"),
			snapshots: reg.Counter("db.snapshots"),
			publishes: reg.Counter("db.publishes"),
			ckptBytes: reg.Gauge("most.checkpoint_bytes"),
			idxActs:   reg.Counter("most.index.activations"),
			idxWrites: reg.Counter("most.index.writes"),
			idxExts:   reg.Counter("most.index.extensions"),
		})
	}
	if w := db.wal.Load(); w != nil {
		w.Instrument(reg)
	}
}

// Instrument attaches (or, with nil, detaches) an observability registry to
// the WAL, recording record appends and explicit fsyncs with latencies.
func (w *WAL) Instrument(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if reg == nil {
		w.appends, w.appendNs, w.syncs, w.syncNs = nil, nil, nil, nil
		return
	}
	w.appends = reg.Counter("wal.appends")
	w.appendNs = reg.Histogram("wal.append_ns")
	w.flushes = reg.Counter("wal.flushes")
	w.syncs = reg.Counter("wal.syncs")
	w.syncNs = reg.Histogram("wal.sync_ns")
}
