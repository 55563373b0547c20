package most

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// This file gives the MOST database crash recovery: an append-only
// write-ahead log of explicit updates, periodic snapshots (checkpoints),
// and a replay path that reconstructs an identical database state.  The
// paper assumes the DBMS simply survives ("the database is updated"); a
// serving system must make that true when the machine hosting it does not.
//
// # Log format
//
// A log is the magic header "MOSTWAL" + version byte 1, followed by
// length-prefixed binary frames:
//
//	u32 payload length · u32 IEEE CRC-32 of the payload · payload
//
// (little-endian).  The payload grammar is in codec.go: a kind byte, the
// sequence number, an optional provenance stamp, then the kind's fields.
// Records are of three state-changing kinds, mirroring the three ways
// database state changes:
//
//   - class  — a DefineClass, carrying the class schema;
//   - clock  — an Advance, carrying the absolute new tick;
//   - update — one explicit update (§2.3), carrying the update kind, the
//     object id, the attribute, and the full post-image of the object
//     revision (absent for deletes) in the checkpoint's object encoding.
//     Post-images make replay idempotent in value: installing the
//     recorded revision reproduces the exact object state regardless of
//     how the mutation computed it.
//
// Records are written under the database's commit lock, so WAL order
// equals commit order; replaying the records in sequence through the
// normal mutation paths therefore rebuilds a byte-identical SnapshotJSON.
// A checkpoint logs a note naming its snapshot before writing it, and
// replay over that snapshot skips the records up to the note (see
// Database.Checkpoint).
//
// # Failure safety
//
// Replay verifies each record's CRC and stops at the first corrupt,
// truncated, or inapplicable record, returning everything recovered up to
// that point plus a RecoveryReport — a partially torn tail (the common
// crash artifact) costs only the torn suffix, never a panic.  Replay and
// OpenWAL find the end of the log with the same walker (walkLog): a torn
// frame (its length prefix runs past the end of the log), an empty frame
// (a zero-filled tail) or a checksum failure ends it.  OpenWAL truncates
// what lies beyond before appending, so a log reopened after a crash stays
// recoverable end to end.  A log or checkpoint in the JSON format of
// earlier versions is refused with a LegacyFormatError and left untouched.
//
// Appends buffer in the OS page cache; they survive a process crash as-is,
// but power-loss durability requires explicit WAL.Sync calls.  Checkpoint
// fsyncs its snapshot (and the containing directory) before truncating the
// log, so a checkpoint never trades a durable log for a volatile snapshot.

// WAL is an append-only write-ahead log.  Attach one to a Database with
// AttachWAL; every subsequent class definition, clock advance, and explicit
// update is appended before the operation returns.  Safe for concurrent use
// (the database appends from whatever goroutine commits).
//
// # Group commit
//
// Concurrent appends coalesce: each append serializes its record into a
// shared staging buffer, and one appender — the leader — writes the whole
// batch in a single Write while later arrivals stage behind it.  Every
// append still blocks until the batch holding its record has been written,
// so the "record is in the page cache when append returns" contract is
// unchanged; what changes is the syscall count under contention (one per
// batch instead of one per record — wal.flushes vs wal.appends in /obs).
//
// A write error marks the WAL broken: further appends are dropped and Err
// returns the first failure.  The database keeps serving — losing the log
// degrades durability, not availability — but callers should treat a
// non-nil Err as "stop trusting this log".
type WAL struct {
	mu   sync.Mutex
	w    io.Writer
	file *os.File // non-nil when opened by path; enables Checkpoint truncation
	seq  uint64
	err  error
	// headed is true once the magic header is staged in front of the
	// first record; an empty (new or truncated) log has none yet.
	headed bool

	// Group-commit state, all under mu.  staging accumulates serialized
	// records for the batch identified by gen; spare is the double buffer
	// the leader swaps in while writing; flushedGen is the newest batch
	// generation durably handed to the writer.  flushed is signalled after
	// every batch write (lazily created on first append).
	staging    []byte
	spare      []byte
	gen        uint64
	flushedGen uint64
	flushing   bool
	flushed    *sync.Cond

	// Observability instruments (nil when uninstrumented); set via
	// WAL.Instrument in obs.go, read under mu.
	appends  *obs.Counter
	appendNs *obs.Histogram
	flushes  *obs.Counter
	syncs    *obs.Counter
	syncNs   *obs.Histogram
}

// NewWAL wraps an arbitrary writer (e.g. a bytes.Buffer in tests or an
// already-open file) that holds no log yet: the first append writes the
// log header.  If w implements interface{ Reset() } the WAL can be
// checkpointed.
func NewWAL(w io.Writer) *WAL { return &WAL{w: w} }

// OpenWAL opens (creating if needed) a file-backed WAL for appending.  An
// existing log is preserved up to the end replay would reach (walkLog): a
// torn final frame — the usual artifact of a crash mid-append — and
// whatever follows a zero-filled or checksum-failing frame are truncated
// away first.  Appending behind such a tail would bury the new records
// inside a torn frame's declared length, or behind a frame replay stops
// at, and lose them at the next recovery.  The dropped records were never
// durably committed, so dropping them is the correct outcome.  A file that
// is not a log in this format is refused and left as it is: a
// LegacyFormatError for a JSON-line log of earlier versions.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	w, err := openWAL(f)
	if err != nil {
		f.Close()
		var legacy *LegacyFormatError
		if errors.As(err, &legacy) {
			legacy.Path = path
			return nil, legacy
		}
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	return w, nil
}

func openWAL(f *os.File) (*WAL, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	walk, err := walkLog(f, st.Size(), nil)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(walk.end); err != nil {
		return nil, err
	}
	if _, err := f.Seek(walk.end, io.SeekStart); err != nil {
		return nil, err
	}
	return &WAL{w: f, file: f, seq: uint64(walk.records), headed: walk.end > 0}, nil
}

// Records returns the number of records appended through this handle (for
// file-backed WALs, including those already on disk when opened).
func (w *WAL) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the first append failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync flushes a file-backed WAL to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return nil
	}
	var t0 time.Time
	if w.syncNs != nil {
		t0 = time.Now()
	}
	err := w.file.Sync()
	w.syncs.Inc()
	w.syncNs.Since(t0)
	return err
}

// Close closes a file-backed WAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return nil
	}
	return w.file.Close()
}

// append frames, checksums, stages, and group-commits one record: the
// record joins the staging batch, and the call returns once the batch
// holding it has been written (by this appender if it elected itself
// leader, by the current leader otherwise).  Errors are sticky.
func (w *WAL) append(rec *walRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	var t0 time.Time
	if w.appendNs != nil {
		t0 = time.Now()
	}
	w.stage(rec)
	w.flushLocked()
	if w.err != nil {
		return
	}
	w.appends.Inc()
	w.appendNs.Since(t0)
}

// stage encodes one record, framed, into the staging buffer (behind the
// log header if the log has none yet).  Callers hold mu.
func (w *WAL) stage(rec *walRecord) {
	w.seq++
	rec.seq = w.seq
	if !w.headed {
		w.staging = append(w.staging, walMagic...)
		w.headed = true
	}
	h := len(w.staging)
	w.staging = append(w.staging, make([]byte, frameHeader)...)
	w.staging = appendRecord(w.staging, rec)
	payload := w.staging[h+frameHeader:]
	if uint64(len(payload)) > math.MaxUint32 {
		w.staging = w.staging[:h]
		w.err = fmt.Errorf("most: wal encode: %d-byte record exceeds the frame limit", len(payload))
		return
	}
	binary.LittleEndian.PutUint32(w.staging[h:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.staging[h+4:], crc32.ChecksumIEEE(payload))
}

// flushLocked waits until everything staged so far has been written: as
// the leader if no write is in flight, else behind the current leader.
// Callers hold mu.
func (w *WAL) flushLocked() {
	if w.flushed == nil {
		w.flushed = sync.NewCond(&w.mu)
	}
	myGen := w.gen
	if w.flushing {
		// A leader is writing: it will pick this record up when it swaps
		// buffers for its next batch.  Wait for that batch to land.
		for w.flushedGen <= myGen && w.err == nil {
			w.flushed.Wait()
		}
		return
	}
	// Become the leader: write batches until the staging buffer drains,
	// releasing mu during each write so later appends coalesce behind us.
	w.flushing = true
	for len(w.staging) > 0 && w.err == nil {
		batch := w.staging
		batchGen := w.gen
		w.staging = w.spare[:0]
		w.spare = nil
		w.gen++
		w.mu.Unlock()
		_, werr := w.w.Write(batch)
		w.mu.Lock()
		w.spare = batch[:0]
		if werr != nil {
			w.err = fmt.Errorf("most: wal append: %w", werr)
		}
		w.flushes.Inc()
		w.flushedGen = batchGen + 1
		w.flushed.Broadcast()
	}
	w.flushing = false
}

// reset truncates the log after a checkpoint.  Only file-backed WALs and
// writers with a Reset method (bytes.Buffer) support it.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.file != nil:
		if err := w.file.Truncate(0); err != nil {
			return fmt.Errorf("most: wal truncate: %w", err)
		}
		if _, err := w.file.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("most: wal truncate: %w", err)
		}
	default:
		r, ok := w.w.(interface{ Reset() })
		if !ok {
			return fmt.Errorf("most: this WAL's writer cannot be truncated")
		}
		r.Reset()
	}
	w.seq = 0
	w.err = nil
	w.headed = false
	// A broken WAL may have left staged-but-unwritten records behind; a
	// truncation starts from a clean slate.
	w.staging = w.staging[:0]
	return nil
}

// AppendNote logs an opaque annotation record.  Notes do not change
// database state on replay; WALObserver surfaces them during recovery.
// The server uses notes to make its idempotence cache durable: one note
// per executed mutating request, appended after the request's own records.
func (w *WAL) AppendNote(tag string, data []byte) error {
	w.append(&walRecord{kind: recNote, tag: tag, data: data})
	return w.Err()
}

// AttachWAL starts logging the database to w.  If the database already
// holds state and the log is empty, a base image (classes, clock, one
// insert per live object) is written first so the log alone reconstructs
// the current state; if the log already has records — reopened after a
// crash, or freshly checkpointed — the base image is skipped, because the
// log (plus its checkpoint snapshot) already represents the state.
//
// Attach at most one WAL per database, before or between commits; the
// attachment holds the commit lock, so the base image and the attach point
// are one atomic cut.
func (db *Database) AttachWAL(w *WAL) error {
	return db.attachWAL(w, func(s *Snapshot) bool { return w.Records() == 0 && (s.now != 0 || len(s.classes) > 0) })
}

// AttachWALNoBase attaches w without ever writing a base image, whatever
// the database and log contents.  A durable server uses it when reopening
// an empty post-checkpoint log next to a snapshot that already represents
// the database: re-logging the state would make the snapshot and the log
// redundantly overlap, breaking the next recovery's replay.
func (db *Database) AttachWALNoBase(w *WAL) error { return db.attachWAL(w, nil) }

// attachWAL attaches w, first logging a base image of the state if base
// says so.
func (db *Database) attachWAL(w *WAL, base func(*Snapshot) bool) error {
	if w == nil {
		return fmt.Errorf("most: nil WAL")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.wal.CompareAndSwap(nil, w) {
		return fmt.Errorf("most: database already has a WAL attached")
	}
	// An already-instrumented database extends its instrumentation to the
	// newly attached log.
	if o := db.obsv.Load(); o != nil {
		w.Instrument(o.reg)
	}
	if s := db.publishLocked(); base != nil && base(s) {
		w.appendBaseImage(s)
	}
	return w.Err()
}

// appendBaseImage logs the full state of s (classes, clock, one insert per
// object) as one group-commit batch.
func (w *WAL) appendBaseImage(s *Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	n := 0
	for _, c := range s.classes {
		w.stage(&walRecord{kind: recClass, class: c.class})
		n++
	}
	w.stage(&walRecord{kind: recClock, now: s.now})
	n++
	for _, o := range s.Objects("") {
		w.stage(&walRecord{kind: recUpdate, upd: Update{Tick: s.now, Kind: UpdateInsert, Object: o.id, After: o}})
		n++
	}
	w.flushLocked()
	// The image went out as one batch; do not keep its buffer as the
	// spare for the small batches that follow.
	w.spare = nil
	if w.err == nil {
		w.appends.Add(int64(n))
	}
}

// DetachWAL unhooks and returns the database's WAL (nil if none was
// attached).  Subsequent commits stop logging; the caller typically hands
// the WAL to a replacement database via RebaseWAL.
func (db *Database) DetachWAL() *WAL { return db.wal.Swap(nil) }

// RebaseWAL truncates w and re-logs this database's full state behind a
// "reset" record, then attaches w.  Replaying the resulting log discards
// everything accumulated before the reset — including a stale checkpoint
// snapshot — so the log alone reconstructs exactly this database.  This is
// the durable form of wholesale state replacement (SnapshotLoad): a crash
// mid-rebase recovers to a prefix of the new state, which the retried
// replacement request then overwrites.
func (db *Database) RebaseWAL(w *WAL) error {
	if w == nil {
		return fmt.Errorf("most: nil WAL")
	}
	if err := w.reset(); err != nil {
		return err
	}
	w.append(&walRecord{kind: recReset})
	return db.attachWAL(w, func(*Snapshot) bool { return true })
}

// ckptNoteTag tags the note Checkpoint logs ahead of its snapshot.
const ckptNoteTag = "checkpoint"

// checkpointNote identifies a checkpoint image: its length and CRC-32.
func checkpointNote(image []byte) []byte {
	return binfmt.AppendU32(binfmt.AppendUvarint(nil, uint64(len(image))), crc32.ChecksumIEEE(image))
}

// Checkpoint writes a consistent snapshot of the current state to snapPath
// in the binary checkpoint format (codec.go), atomically via
// WriteFileAtomic, and truncates the attached WAL: recovery then needs
// only the snapshot plus the post-checkpoint log tail.  Commits wait for
// it.
//
// A crash after the snapshot lands but before the log is truncated leaves
// the new snapshot beside a log whose records it already holds.  So the
// log first gets a note naming the image (length and CRC), fsynced, and
// recovery skips every record up to a note that names the snapshot it
// loaded.
func (db *Database) Checkpoint(snapPath string) error {
	w := db.wal.Load()
	if w == nil {
		return fmt.Errorf("most: no WAL attached")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	data := db.publishLocked().appendCheckpoint(make([]byte, 0, db.ckptSize.Load()))
	db.ckptSize.Store(int64(len(data)))
	w.append(&walRecord{kind: recNote, tag: ckptNoteTag, data: checkpointNote(data)})
	if err := w.Sync(); err != nil {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	// The WAL may only be truncated once the snapshot that replaces it is
	// durable, which WriteFileAtomic guarantees on return.
	if err := WriteFileAtomic(snapPath, data); err != nil {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	db.obsv.Load().checkpointDone(len(data))
	return w.reset()
}

// WriteFileAtomic replaces path with data so that a crash or power loss at
// any point leaves either the old contents or the new, never a torn mix or
// a missing file: it writes a temp file beside path, fsyncs it, renames it
// over path, and fsyncs the directory.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := dir.Sync()
	dir.Close()
	return serr
}

// RecoveryReport describes how a recovery went.
type RecoveryReport struct {
	// Records is the number of WAL records successfully applied.
	Records int
	// Truncated is true when replay stopped before the end of the log —
	// the tail was corrupt, torn, or inapplicable.  The returned database
	// holds everything up to the failure point.
	Truncated bool
	// BadRecord is the 1-based index of the first bad record in the log
	// (0 when !Truncated).
	BadRecord int
	// Reason says why replay stopped (empty when !Truncated).
	Reason string
	// End is the byte length of the log prefix replay accepted.  A log
	// reopened for appending after a truncated replay must be cut there:
	// records appended behind a rejected one would never replay.
	End int64
}

// WALObserver watches a recovery replay.  Both callbacks are optional.
// Note fires for every "note" record (which never touches database state);
// an error from it fails the whole recovery, naming the record, because a
// note the observer cannot read is lost state, not a damaged tail.
// Applied fires after every successfully replayed provenance-stamped record
// with the database clock as of that record.  Together they let a durable
// server rebuild its exactly-once state: notes carry completed-request
// receipts, and Applied reveals how far a request that crashed mid-flight
// got, so its retry can roll forward instead of re-applying.
type WALObserver struct {
	Note    func(tag string, data []byte) error
	Applied func(p Prov, now temporal.Tick)
}

// Recover rebuilds a database from an optional checkpoint snapshot and a
// WAL.  A nil/empty snapshot means the log starts from an empty database.
// Corrupt or truncated logs are not an error: replay keeps everything up
// to the first bad record and reports the damage.  An unreadable snapshot
// IS an error — there is no safe prefix to fall back to — and so is input
// in the legacy JSON format (LegacyFormatError).
func Recover(snapshot, wal []byte) (*Database, *RecoveryReport, error) {
	return recoverLog(snapshot, bytes.NewReader(wal), int64(len(wal)), nil)
}

// recoverLog is Recover over a log of size bytes read from wal, with a
// replay observer (see WALObserver).
func recoverLog(snapshot []byte, wal io.ReadSeeker, size int64, ob *WALObserver) (*Database, *RecoveryReport, error) {
	db := NewDatabase()
	covered := 0
	if len(snapshot) > 0 {
		var err error
		if db, err = loadCheckpoint(snapshot); err != nil {
			return nil, nil, err
		}
		if covered, err = coveredRecords(wal, size, checkpointNote(snapshot)); err != nil {
			return nil, nil, err
		}
	}
	n := 0
	var noteErr error
	walk, err := walkLog(wal, size, func(payload []byte) error {
		if n++; n <= covered {
			return nil // already in the snapshot
		}
		rec, err := decodeRecord(payload, *db.byName.Load())
		if err != nil {
			return fmt.Errorf("bad record: %w", err)
		}
		switch rec.kind {
		case recReset:
			// Wholesale state replacement: discard everything recovered so
			// far (snapshot included) and rebuild from the records that
			// follow — the base image the rebase logged.
			db = NewDatabase()
		case recNote:
			if ob != nil && ob.Note != nil {
				if noteErr = ob.Note(rec.tag, rec.data); noteErr != nil {
					return noteErr
				}
			}
		default:
			if err := db.applyWALRecord(&rec); err != nil {
				return err
			}
			if rec.prov != nil && ob != nil && ob.Applied != nil {
				ob.Applied(*rec.prov, db.Now())
			}
		}
		return nil
	})
	switch {
	case noteErr != nil:
		return nil, nil, fmt.Errorf("most: log record %d: %w", n, noteErr)
	case errors.Is(err, errForeignLog):
		walk.reason = "bad log header"
	case err != nil:
		return nil, nil, err
	}
	rep := &RecoveryReport{Records: walk.records, End: walk.end}
	if walk.reason != "" {
		rep.Truncated = true
		rep.BadRecord = walk.records + 1
		rep.Reason = walk.reason
	}
	return db, rep, nil
}

// coveredRecords returns how many leading records of the log a snapshot
// already holds: those up to the last checkpoint note naming it (note is
// checkpointNote of the snapshot), or none.  It leaves wal rewound.
func coveredRecords(wal io.ReadSeeker, size int64, note []byte) (int, error) {
	n, covered := 0, 0
	// Damage is the replay walk's to report; this walk just stops there.
	walkLog(wal, size, func(payload []byte) error {
		n++
		if payload[0] == recNote {
			if rec, err := decodeRecord(payload, nil); err == nil && rec.tag == ckptNoteTag && bytes.Equal(rec.data, note) {
				covered = n
			}
		}
		return nil
	})
	_, err := wal.Seek(0, io.SeekStart)
	return covered, err
}

// RecoverFiles is Recover over a snapshot path (missing file = no
// checkpoint) and a WAL path (missing file = empty log).
func RecoverFiles(snapPath, walPath string) (*Database, *RecoveryReport, error) {
	return RecoverFilesObserved(snapPath, walPath, nil)
}

// RecoverFilesObserved is RecoverFiles with a replay observer.
func RecoverFilesObserved(snapPath, walPath string, ob *WALObserver) (*Database, *RecoveryReport, error) {
	snap, err := os.ReadFile(snapPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	// The log is streamed: recovery holds one record at a time, not the
	// whole file.
	var wal io.ReadSeeker = bytes.NewReader(nil)
	var size int64
	f, err := os.Open(walPath)
	switch {
	case err == nil:
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, nil, err
		}
		wal, size = f, st.Size()
	case !os.IsNotExist(err):
		return nil, nil, err
	}
	db, rep, err := recoverLog(snap, wal, size, ob)
	var legacy *LegacyFormatError
	if errors.As(err, &legacy) {
		legacy.Path = walPath
		if legacy.Format == legacyCheckpoint {
			legacy.Path = snapPath
		}
	}
	return db, rep, err
}

// applyWALRecord replays one state-changing record through the normal
// mutation paths.
func (db *Database) applyWALRecord(rec *walRecord) error {
	switch rec.kind {
	case recClass:
		return db.DefineClass(rec.class)
	case recClock:
		if rec.now < db.Now() {
			return fmt.Errorf("clock record runs backwards (%d < %d)", rec.now, db.Now())
		}
		db.Advance(rec.now - db.Now())
		return nil
	case recUpdate:
		u := &rec.upd
		return db.Batch(func(tx *Tx) error {
			switch {
			case u.Kind == UpdateDelete:
				return tx.Delete(u.Object, rec.prov)
			case u.After == nil:
				return fmt.Errorf("update of %s without post-image", u.Object)
			case u.Kind == UpdateInsert:
				return tx.Insert(u.After, rec.prov)
			case u.Kind == UpdateStatic || u.Kind == UpdateDynamic:
				// Install the recorded post-image wholesale: replay
				// reproduces the exact revision the original mutation
				// computed.
				return tx.mutate(u.Object, u.Kind, u.Attr, rec.prov, func(*Object, temporal.Tick) (*Object, error) {
					return u.After, nil
				})
			}
			return fmt.Errorf("unknown update kind %d", u.Kind)
		})
	default:
		return fmt.Errorf("unknown record kind %d", rec.kind)
	}
}
