package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// This file makes the server crash-safe: NewDurable threads the most.WAL
// and checkpoint machinery into the commit path, so every mutating request
// is on disk (page cache) before its acknowledgement leaves the server, and
// a restart rebuilds the database — and the idempotence cache — from the
// data directory.
//
// # Exactly-once across restarts
//
// The in-memory dedup cache alone cannot survive a crash, so the durable
// server writes two extra artifacts:
//
//   - a provenance stamp (most.Prov{Client, Req, Op}) on every WAL record a
//     mutating request produces, revealing on replay how far a request that
//     crashed mid-flight got; and
//   - one "note" WAL record per completed mutating request — a receipt
//     carrying the client, request id, and the response as executed —
//     appended after the request's own records.
//
// Because a request's records are appended in order by one goroutine and
// torn tails truncate from the end, a partial request's records are always
// a prefix of its operations.  Recovery therefore classifies every request
// it sees: a receipt means "completed — replay the recorded response to a
// retry"; provenance without a receipt means "partial — the retry must roll
// forward, skipping the operations already applied, instead of re-applying
// them".  Both classifications survive checkpoints via the dedup sidecar
// (dedup.bin), written atomically under the exclusive commit lock just
// before the WAL is truncated.  A receipt note or sidecar that does not
// decode fails recovery: exactly-once state is never dropped silently.
//
// # Data directory
//
// wal.log and checkpoint.bin are the binary log and checkpoint of
// internal/most; the receipt notes inside the log and dedup.bin use the
// binary receipt encoding below.  A directory written by earlier versions —
// a checkpoint.json, a JSON-line wal.log, a JSON dedup sidecar or JSON
// receipt notes — is refused with a *most.LegacyFormatError and left
// untouched.
//
// A receipt is
//
//	client str · req uvarint · opcode u8 · response payload bytes
//
// and dedup.bin is a sealed file (binfmt.Seal) with the magic "MOSTDDP" +
// version byte 1 and a body of a uvarint count of receipts, then a uvarint
// count of partials (each client str · req uvarint · highest applied op
// varint).
//
// # Commit lock
//
// commitMu orders requests against checkpoints: every mutating request
// holds it shared for its whole execute-then-receipt critical section
// (SnapshotLoad, which rebases the WAL, holds it exclusively), and
// Checkpoint holds it exclusively.  A checkpoint therefore never cuts
// between a request's WAL records and its receipt, which is what makes the
// sidecar's receipt set consistent with the snapshot.

// Durable data-directory file names.  The legacy names are the JSON files
// of earlier versions, refused on sight.
const (
	walFile         = "wal.log"
	snapFile        = "checkpoint.bin"
	dedupFile       = "dedup.bin"
	legacySnapFile  = "checkpoint.json"
	legacyDedupFile = "dedup.json"
)

// receiptRec is one completed mutating request: the WAL note payload and
// the sidecar entry are the same encoding.  Frame is the response payload
// as executed; Op is its frame opcode (OpResult or OpError).
type receiptRec struct {
	Client string
	Req    uint64
	Op     wire.Opcode
	Frame  []byte
}

// dedupMagic identifies dedup.bin: seven bytes plus a format version byte.
var dedupMagic = []byte("MOSTDDP\x01")

// Minimum encoded sizes, used to bound hostile element counts.
const (
	minReceiptSize = 4 // client str, req, opcode, payload length
	minPartialSize = 3 // client str, req, op
)

func appendReceipt(b []byte, rec *receiptRec) []byte {
	b = binfmt.AppendStr(b, rec.Client)
	b = binfmt.AppendUvarint(b, rec.Req)
	b = binfmt.AppendU8(b, uint8(rec.Op))
	return binfmt.AppendBytes(b, rec.Frame)
}

func readReceipt(r *binfmt.Reader) receiptRec {
	rec := receiptRec{Client: r.Str(), Req: r.Uvarint(), Op: wire.Opcode(r.U8()), Frame: r.StrBytes()}
	switch {
	case r.Err != nil:
	case rec.Client == "":
		r.Fail("receipt without a client")
	case rec.Op != wire.OpResult && rec.Op != wire.OpError:
		r.Fail("receipt opcode %d is not a response", rec.Op)
	}
	return rec
}

// readSidecar decodes dedup.bin, handing each receipt and each partial (a
// request known to have applied operations 0..p.Op but never completed)
// to the callbacks.
func readSidecar(data []byte, receipt func(receiptRec), partial func(p most.Prov)) error {
	r, err := binfmt.Unseal(data, dedupMagic)
	if err != nil {
		return err
	}
	for i, n := 0, r.VarCount(minReceiptSize); i < n && r.Err == nil; i++ {
		if rec := readReceipt(r); r.Err == nil {
			receipt(rec)
		}
	}
	for i, n := 0, r.VarCount(minPartialSize); i < n && r.Err == nil; i++ {
		if p := (most.Prov{Client: r.Str(), Req: r.Uvarint(), Op: int(r.Varint())}); r.Err == nil {
			partial(p)
		}
	}
	return r.End()
}

// RecoveryInfo reports what NewDurable rebuilt.
type RecoveryInfo struct {
	// Report is the WAL replay report; nil on a fresh start (no snapshot,
	// no log).  A crash between a checkpoint's snapshot and its WAL
	// truncation is not damage: replay skips the records the snapshot
	// already holds (most.Database.Checkpoint).
	Report *most.RecoveryReport
	// Fresh is true when the data directory held no state and the seed
	// database was used.
	Fresh bool
	// Objects and Now describe the recovered database.
	Objects int
	Now     temporal.Tick
	// Receipts and Partials count the rebuilt exactly-once state.
	Receipts int
	Partials int
	// Elapsed is the wall-clock recovery time (also server.recovery_ms).
	Elapsed time.Duration
}

// clientEpoch fences zombie sessions: the newest epoch a ClientID has said
// Hello with, and the session that said it.
type clientEpoch struct {
	epoch uint64
	sess  *session
}

// NewDurable recovers (or seeds) a database from dir and returns a server
// whose commit path is write-ahead logged: wal.log, checkpoint.bin, and
// dedup.bin under dir.  On a fresh directory the seed callback (nil means
// an empty database) provides the initial state, which is logged as the
// WAL's base image.  cfg.CheckpointEvery > 0 checkpoints automatically
// every N mutating requests; Checkpoint may also be called explicitly, and
// a clean Shutdown checkpoints once more so the next start replays nothing.
func NewDurable(dir string, cfg Config, seed func() *most.Database) (*Server, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: durable dir: %w", err)
	}
	cfg.Health.Set(obs.StateRecovering)
	t0 := time.Now()
	snapPath := filepath.Join(dir, snapFile)
	walPath := filepath.Join(dir, walFile)
	dedupPath := filepath.Join(dir, dedupFile)
	for _, l := range [][2]string{{legacySnapFile, "JSON checkpoint"}, {legacyDedupFile, "JSON dedup sidecar"}} {
		if legacy := filepath.Join(dir, l[0]); fileSize(legacy) >= 0 {
			return nil, nil, &most.LegacyFormatError{Path: legacy, Format: l[1]}
		}
	}

	haveSnap := fileSize(snapPath) > 0

	// Rebuild the exactly-once state: the sidecar first (it predates
	// everything in the log), then the log's notes and provenance stamps.
	type rkey struct {
		c string
		r uint64
	}
	recMap := map[rkey]receiptRec{}
	var order []rkey
	partials := map[string]map[uint64]int{}
	addReceipt := func(rec receiptRec) {
		k := rkey{rec.Client, rec.Req}
		if _, ok := recMap[k]; !ok {
			order = append(order, k)
		}
		recMap[k] = rec
		if m := partials[rec.Client]; m != nil {
			delete(m, rec.Req)
		}
	}
	addPartial := func(p most.Prov) {
		if _, done := recMap[rkey{p.Client, p.Req}]; done || p.Client == "" {
			return
		}
		m := partials[p.Client]
		if m == nil {
			m = map[uint64]int{}
			partials[p.Client] = m
		}
		if op, ok := m[p.Req]; !ok || p.Op > op {
			m[p.Req] = p.Op
		}
	}
	if data, err := os.ReadFile(dedupPath); err == nil {
		if err := readSidecar(data, addReceipt, addPartial); err != nil {
			return nil, nil, fmt.Errorf("server: dedup sidecar %s: %w", dedupPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read dedup sidecar: %w", err)
	}

	info := &RecoveryInfo{}
	var db *most.Database
	if !haveSnap && fileSize(walPath) <= 0 {
		info.Fresh = true
		if seed != nil {
			db = seed()
		} else {
			db = most.NewDatabase()
		}
	} else {
		ob := &most.WALObserver{
			Note: func(tag string, data []byte) error {
				switch tag {
				case noteTagReceipt:
					r := binfmt.Reader{Data: data}
					rec := readReceipt(&r)
					if err := r.End(); err != nil {
						return fmt.Errorf("server: receipt note: %w", err)
					}
					addReceipt(rec)
				case legacyNoteTagReceipt:
					return &most.LegacyFormatError{Format: "WAL with JSON receipt notes"}
				}
				return nil
			},
			Applied: func(p most.Prov, _ temporal.Tick) { addPartial(p) },
		}
		var rep *most.RecoveryReport
		var err error
		db, rep, err = most.RecoverFilesObserved(snapPath, walPath, ob)
		if err != nil {
			return nil, nil, fmt.Errorf("server: recover: %w", err)
		}
		info.Report = rep
	}
	for c, m := range partials {
		if len(m) == 0 {
			delete(partials, c)
		}
	}

	// Cut the log where replay stopped.  OpenWAL trims only torn and
	// checksum-failing frames; behind a whole record replay rejected, new
	// appends would never replay.
	if rep := info.Report; rep != nil && rep.Truncated && rep.End > 0 {
		if err := os.Truncate(walPath, rep.End); err != nil {
			return nil, nil, fmt.Errorf("server: cut wal: %w", err)
		}
	}

	// Reopen the log for appending (truncating any torn tail) and attach.
	// A clean checkpoint leaves a snapshot next to an empty log: the
	// snapshot already represents the state, so the attach must not write a
	// base image on top of it (the next recovery would replay it twice).
	w, err := most.OpenWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	if haveSnap && w.Records() == 0 {
		err = db.AttachWALNoBase(w)
	} else {
		err = db.AttachWAL(w)
	}
	if err != nil {
		w.Close()
		return nil, nil, err
	}

	srv := New(db, query.NewEngine(db), cfg)
	srv.wal = w
	srv.snapPath = snapPath
	srv.dedupPath = dedupPath
	srv.checkpointEvery = cfg.CheckpointEvery
	srv.partial = partials

	for _, k := range order {
		rec := recMap[k]
		srv.recovered[rec.Client] = struct{}{}
		cache := srv.dedupFor(rec.Client)
		e, replay := cache.begin(rec.Req)
		if !replay {
			e.finish(wire.Frame{Op: rec.Op, ID: rec.Req, Version: wire.MinProtocolVersion, Payload: rec.Frame})
		}
	}
	for c := range partials {
		srv.recovered[c] = struct{}{}
		info.Partials += len(partials[c])
	}

	info.Objects = db.Count()
	info.Now = db.Now()
	info.Receipts = len(order)
	info.Elapsed = time.Since(t0)
	srv.m.recoveryMs.Set(info.Elapsed.Milliseconds())
	return srv, info, nil
}

// fileSize returns the size of the file at path, or -1 when it cannot be
// stat'ed (a missing file; any other failure resurfaces when the file is
// read).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}

// Tags of completed-request receipt notes in the WAL: the binary receipt,
// and the JSON receipt of earlier versions, refused on sight.
const (
	noteTagReceipt       = "receipt"
	legacyNoteTagReceipt = "req"
)

// logReceipt appends a completed request's receipt note.  Called with
// commitMu held (shared or exclusive), after the request's own records.
func (srv *Server) logReceipt(client string, req uint64, f wire.Frame) {
	if client == "" || srv.wal == nil {
		return
	}
	srv.wal.AppendNote(noteTagReceipt, appendReceipt(nil, &receiptRec{Client: client, Req: req, Op: f.Op, Frame: f.Payload}))
}

// takePartial consumes the recovered roll-forward state for one request:
// the highest operation index already applied before the crash, if replay
// saw provenance for (client, req) without a receipt.
func (srv *Server) takePartial(client string, req uint64) (int, bool) {
	if client == "" || srv.wal == nil {
		return 0, false
	}
	srv.partialMu.Lock()
	defer srv.partialMu.Unlock()
	m := srv.partial[client]
	if m == nil {
		return 0, false
	}
	op, ok := m[req]
	if ok {
		delete(m, req)
		if len(m) == 0 {
			delete(srv.partial, client)
		}
	}
	return op, ok
}

// wasRecovered reports whether recovery rebuilt any exactly-once state for
// the client — the durable half of HelloResp.Resumed.
func (srv *Server) wasRecovered(client string) bool {
	if client == "" {
		return false
	}
	srv.partialMu.Lock()
	defer srv.partialMu.Unlock()
	_, ok := srv.recovered[client]
	return ok
}

// afterMutation drives the auto-checkpoint policy.  A failed checkpoint
// costs nothing but log length (the WAL is truncated only after the
// snapshot is durable) and is counted in server.checkpoint_errors; the
// next period retries.
func (srv *Server) afterMutation() {
	if srv.wal == nil || srv.checkpointEvery <= 0 {
		return
	}
	if srv.mutSince.Add(1)%uint64(srv.checkpointEvery) == 0 {
		srv.Checkpoint()
	}
}

// Checkpoint writes the dedup sidecar and a database snapshot, then
// truncates the WAL, all under the exclusive commit lock so no request is
// split across the cut.  Crash windows are safe in every order: the
// sidecar lands before the snapshot (its receipts are a superset-consistent
// view the WAL notes reproduce), and the snapshot lands durably before the
// log is truncated (most.Database.Checkpoint's fsync discipline).  Every
// call lands in server.checkpoints and server.checkpoint_ns, or in
// server.checkpoint_errors when it fails.
func (srv *Server) Checkpoint() error {
	if srv.wal == nil {
		return errors.New("server: not a durable server")
	}
	srv.commitMu.Lock()
	defer srv.commitMu.Unlock()
	t0 := time.Now()
	if err := srv.checkpointLocked(); err != nil {
		srv.m.checkpointErrors.Inc()
		return err
	}
	srv.m.checkpoints.Inc()
	srv.m.checkpointNs.Since(t0)
	return nil
}

func (srv *Server) checkpointLocked() error {
	if err := most.WriteFileAtomic(srv.dedupPath, srv.encodeSidecar()); err != nil {
		return fmt.Errorf("server: dedup sidecar: %w", err)
	}
	return srv.state().db.Checkpoint(srv.snapPath)
}

// encodeSidecar serializes the live exactly-once state as dedup.bin.
// Under the exclusive commit lock every begun-and-executing request has
// finished, so the rare unfinished entry (reserved but still waiting on the
// commit lock) is safely skipped: its records will land in the
// post-checkpoint WAL.
func (srv *Server) encodeSidecar() []byte {
	var recs []receiptRec
	srv.dedupMu.Lock()
	clients := make([]string, 0, len(srv.dedup))
	for c := range srv.dedup {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		cache := srv.dedup[c]
		cache.mu.Lock()
		for _, id := range cache.order {
			e, ok := cache.entries[id]
			if !ok {
				continue
			}
			select {
			case <-e.done:
				recs = append(recs, receiptRec{Client: c, Req: id, Op: e.frame.Op, Frame: e.frame.Payload})
			default:
			}
		}
		cache.mu.Unlock()
	}
	srv.dedupMu.Unlock()
	var parts []most.Prov
	srv.partialMu.Lock()
	for c, m := range srv.partial {
		for r, op := range m {
			parts = append(parts, most.Prov{Client: c, Req: r, Op: op})
		}
	}
	srv.partialMu.Unlock()
	sort.Slice(parts, func(i, j int) bool {
		a, b := parts[i], parts[j]
		return a.Client < b.Client || (a.Client == b.Client && a.Req < b.Req)
	})

	b := binfmt.AppendUvarint(append([]byte(nil), dedupMagic...), uint64(len(recs)))
	for i := range recs {
		b = appendReceipt(b, &recs[i])
	}
	b = binfmt.AppendUvarint(b, uint64(len(parts)))
	for _, p := range parts {
		b = binfmt.AppendVarint(binfmt.AppendUvarint(binfmt.AppendStr(b, p.Client), p.Req), int64(p.Op))
	}
	return binfmt.Seal(b, 0)
}

// Abort kills the server without draining, checkpointing, or flushing: the
// listener closes, every session dies mid-write, and the WAL is left
// exactly as the page cache holds it.  This is the in-process equivalent
// of kill -9, used by the chaos harness to exercise crash recovery.
func (srv *Server) Abort() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	ln := srv.ln
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.kill("server aborted")
	}
	srv.wg.Wait()
	if srv.wal != nil {
		srv.wal.Close()
	}
}

// finishDurable runs at the end of Shutdown: a clean drain earns a final
// checkpoint (the next start replays nothing), a timed-out one just closes
// the log — everything acknowledged is already in it.  A failed final
// checkpoint is counted in server.checkpoint_errors and leaves the log
// intact, so the next start replays it.
func (srv *Server) finishDurable(clean bool) {
	if srv.wal == nil {
		return
	}
	if clean {
		srv.Checkpoint()
	}
	srv.wal.Close()
}
