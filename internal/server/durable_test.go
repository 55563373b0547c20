package server

// Crash-safety tests for the durable server: kill -9 (Abort) and restart
// from the write-ahead log, idempotent retries straddling the crash,
// partial-batch roll-forward, checkpoint + dedup sidecar recovery,
// admission control, deadline refusal, epoch fencing, and health
// lifecycle.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

func seedFleet() *most.Database {
	db, err := workload.Fleet(workload.FleetSpec{
		N:        5,
		Region:   geom.Rect{Max: geom.Point{X: 100, Y: 100}},
		MaxSpeed: 2,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	return db
}

// startDurable recovers-or-seeds a durable server from dir and serves it
// on addr ("" = fresh port).  The caller stops it (Abort or Shutdown).
func startDurable(t *testing.T, dir, addr string, cfg Config) (*Server, *RecoveryInfo) {
	t.Helper()
	srv, info, err := NewDurable(dir, cfg, seedFleet)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := srv.ListenAndServe(addr); err != nil {
		t.Fatal(err)
	}
	return srv, info
}

// rawConn is a hand-driven protocol-v2 connection with explicit control
// over ClientID, request IDs and epochs — the knobs the crash tests need.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	dec *wire.Decoder
}

// rawDial connects and says Hello; it returns the raw Hello response
// frame so callers can assert rejections too.
func rawDial(t *testing.T, addr, clientID string, epoch uint64) (*rawConn, wire.Frame) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := &rawConn{t: t, c: c, dec: wire.NewDecoder(c, wire.DefaultMaxPayload)}
	f, err := wire.EncodeFrame(wire.ProtocolV2, wire.OpHello, 1, &wire.HelloReq{ClientID: clientID, MaxVersion: wire.ProtocolV2, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, f); err != nil {
		t.Fatal(err)
	}
	resp, err := r.dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	return r, resp
}

func mustHello(t *testing.T, addr, clientID string, epoch uint64) (*rawConn, wire.HelloResp) {
	t.Helper()
	r, f := rawDial(t, addr, clientID, epoch)
	if f.Op == wire.OpError {
		var e wire.ErrorResp
		_ = wire.Unmarshal(f, &e)
		t.Fatalf("hello rejected: %s (%s)", e.Msg, e.Code)
	}
	var hello wire.HelloResp
	if err := wire.Unmarshal(f, &hello); err != nil {
		t.Fatal(err)
	}
	return r, hello
}

func (r *rawConn) call(op wire.Opcode, id uint64, payload any) wire.Frame {
	r.t.Helper()
	f, err := wire.EncodeFrame(wire.ProtocolV2, op, id, payload)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := wire.WriteFrame(r.c, f); err != nil {
		r.t.Fatal(err)
	}
	resp, err := r.dec.Next()
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

func (r *rawConn) update(id uint64, ops []wire.UpdateOp) wire.UpdateBatchResp {
	r.t.Helper()
	f := r.call(wire.OpUpdateBatch, id, &wire.UpdateBatchReq{Ops: ops})
	if f.Op == wire.OpError {
		var e wire.ErrorResp
		_ = wire.Unmarshal(f, &e)
		r.t.Fatalf("update %d refused: %s (%s)", id, e.Msg, e.Code)
	}
	var resp wire.UpdateBatchResp
	if err := wire.Unmarshal(f, &resp); err != nil {
		r.t.Fatal(err)
	}
	return resp
}

func (r *rawConn) snapshot() []byte {
	r.t.Helper()
	f := r.call(wire.OpSnapshotSave, 1<<40, nil)
	var resp wire.SnapshotResp
	if err := wire.Unmarshal(f, &resp); err != nil {
		r.t.Fatal(err)
	}
	return resp.Data
}

func motionOp(car int, vx, vy float64) wire.UpdateOp {
	return wire.UpdateOp{Op: wire.OpSetMotion, ID: vid(car), VX: vx, VY: vy}
}

// The satellite acceptance test: commit over TCP, hard-kill the server,
// restart from the WAL, and prove (a) the committed state survived
// byte-identically, and (b) a retry of an already-committed request is
// replayed, not re-applied.
func TestDurableCrashRestartExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	srv, info := startDurable(t, dir, "", Config{})
	if !info.Fresh {
		t.Fatal("expected fresh start")
	}
	addr := srv.Addr().String()

	r1, hello := mustHello(t, addr, "alice", 1)
	if hello.Resumed {
		t.Fatal("fresh server claims a resumed session")
	}
	first := r1.update(1, []wire.UpdateOp{motionOp(0, 3, 1), motionOp(1, -2, 0)})
	if first.Applied != 2 {
		t.Fatalf("applied %d of 2", first.Applied)
	}
	before := r1.snapshot()
	r1.c.Close()

	srv.Abort() // kill -9: no drain, no checkpoint

	srv2, info2 := startDurable(t, dir, addr, Config{})
	defer srv2.Abort()
	if info2.Fresh {
		t.Fatal("restart treated a populated directory as fresh")
	}
	if info2.Receipts == 0 {
		t.Fatal("no receipts recovered: retries would double-apply")
	}

	r2, hello2 := mustHello(t, addr, "alice", 2)
	if !hello2.Resumed {
		t.Fatal("recovered server did not report the client as resumed")
	}
	// The duplicate in-flight retry: same request ID, same payload.  It
	// must be answered from the recovered receipt with the original
	// response, not executed again.
	replay := r2.update(1, []wire.UpdateOp{motionOp(0, 3, 1), motionOp(1, -2, 0)})
	if replay.Version != first.Version || replay.Applied != first.Applied {
		t.Fatalf("retry re-executed: got version %d applied %d, want %d/%d",
			replay.Version, replay.Applied, first.Version, first.Applied)
	}
	after := r2.snapshot()
	if string(before) != string(after) {
		t.Fatal("recovered state differs from committed pre-crash state")
	}
	// A fresh mutation lands exactly one version past the original —
	// nothing was double-applied in between.
	probe := r2.update(2, []wire.UpdateOp{motionOp(2, 1, 1)})
	if probe.Version != first.Version+1 {
		t.Fatalf("version after restart+retry = %d, want %d", probe.Version, first.Version+1)
	}
}

// A checkpoint plus its dedup sidecar must carry both the state and the
// exactly-once receipts across a crash, even with the WAL truncated.
func TestDurableCheckpointSidecarSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	addr := srv.Addr().String()

	r1, _ := mustHello(t, addr, "alice", 1)
	first := r1.update(1, []wire.UpdateOp{motionOp(0, 5, 5)})
	r1.c.Close()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Abort()

	srv2, info := startDurable(t, dir, addr, Config{})
	defer srv2.Abort()
	if info.Receipts == 0 {
		t.Fatal("sidecar receipts lost across checkpoint+crash")
	}

	// Restoring a checkpoint restarts the version counter, so sandwich the
	// replay between two fresh probes: if the retry had re-executed, the
	// second probe would land two versions past the first.
	r2, _ := mustHello(t, addr, "alice", 2)
	probeA := r2.update(2, []wire.UpdateOp{motionOp(1, 1, 0)})
	replay := r2.update(1, []wire.UpdateOp{motionOp(0, 5, 5)})
	if replay.Version != first.Version {
		t.Fatalf("post-checkpoint retry not answered from receipt: version %d, want %d", replay.Version, first.Version)
	}
	probeB := r2.update(3, []wire.UpdateOp{motionOp(2, 1, 0)})
	if probeB.Version != probeA.Version+1 {
		t.Fatalf("replay applied %d mutations, want 0", probeB.Version-probeA.Version-1)
	}
}

// A crash can land between a batch's WAL records and its receipt: the
// recovered server holds a prefix of the batch.  The client's retry must
// roll forward — apply only the unlogged suffix — so the batch still
// lands exactly once.
func TestDurablePartialBatchRollsForward(t *testing.T) {
	dir := t.TempDir()

	// Handcraft the crashed state: a WAL whose tail is two provenance-
	// stamped ops of alice's three-op request 9, receipt never written.
	db := most.NewDatabase()
	w, err := most.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass(workload.VehicleClass); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		o, err := most.NewObject(most.ObjectID(vid(i)), workload.VehicleClass)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	batch := []wire.UpdateOp{motionOp(0, 1, 0), motionOp(1, 2, 0), motionOp(2, 3, 0)}
	for i, op := range batch[:2] { // ...the third op never made the log
		if err := db.SetMotionProv(most.ObjectID(op.ID), geom.Vector{X: op.VX}, &most.Prov{Client: "alice", Req: 9, Op: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv, info := startDurable(t, dir, "", Config{})
	defer srv.Abort()
	if info.Partials != 1 {
		t.Fatalf("recovered %d partials, want 1", info.Partials)
	}

	r, hello := mustHello(t, srv.Addr().String(), "alice", 1)
	if !hello.Resumed {
		t.Fatal("client with a recovered partial not reported as resumed")
	}
	base := r.update(8, []wire.UpdateOp{motionOp(4, 9, 9)})
	retry := r.update(9, batch)
	if retry.Applied != len(batch) {
		t.Fatalf("retry applied %d of %d", retry.Applied, len(batch))
	}
	// Exactly one mutation beyond the probe: ops 0 and 1 were skipped
	// (already in the log), only op 2 executed.
	if retry.Version != base.Version+1 {
		t.Fatalf("roll-forward applied %d ops, want 1", retry.Version-base.Version)
	}
}

func TestAdmissionControlShedsAndClientRetries(t *testing.T) {
	reg := obs.New()
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{MaxInflight: 1, Reg: reg})
	defer srv.Abort()
	addr := srv.Addr().String()

	// Occupy the only slot, as a stuck in-flight request would.
	srv.admit <- struct{}{}

	r, _ := mustHello(t, addr, "raw", 1)
	if f := r.call(wire.OpPing, 2, nil); f.Op == wire.OpError {
		t.Fatal("ping must be exempt from admission control")
	}
	f := r.call(wire.OpUpdateBatch, 3, &wire.UpdateBatchReq{Ops: []wire.UpdateOp{motionOp(0, 1, 1)}})
	if f.Op != wire.OpError {
		t.Fatal("overloaded server executed instead of shedding")
	}
	var e wire.ErrorResp
	_ = wire.Unmarshal(f, &e)
	if e.Code != wire.CodeOverloaded {
		t.Fatalf("shed code = %q, want %q", e.Code, wire.CodeOverloaded)
	}
	if reg.Counter("server.shed_requests").Value() == 0 {
		t.Fatal("server.shed_requests not incremented")
	}

	// A real client rides out the shed window under backoff and lands the
	// mutation once the slot frees.
	release := time.AfterFunc(60*time.Millisecond, func() { <-srv.admit })
	defer release.Stop()
	c, err := client.Dial(addr,
		client.WithClientID("patient"),
		client.WithBackoff(2*time.Millisecond, 50*time.Millisecond),
		client.WithRetries(50),
		client.WithJitterSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.UpdateBatch([]wire.UpdateOp{motionOp(1, 2, 2)}); err != nil {
		t.Fatalf("client did not retry through shedding: %v", err)
	}
}

// A request whose deadline budget is spent is refused with a typed code
// and — critically — never cached: the retry with a fresh budget must
// execute, not replay the refusal.
func TestDeadlineRefusalNotCached(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	defer srv.Abort()

	r, _ := mustHello(t, srv.Addr().String(), "alice", 1)
	// A batch bulky enough that decoding alone outlives a 1ms budget.
	big := make([]wire.UpdateOp, 200000)
	for i := range big {
		big[i] = motionOp(0, float64(i), 0)
	}
	f := r.call(wire.OpUpdateBatch, 7, &wire.UpdateBatchReq{Ops: big, DeadlineMS: 1})
	if f.Op != wire.OpError {
		t.Skip("decode beat the 1ms deadline on this machine")
	}
	var e wire.ErrorResp
	_ = wire.Unmarshal(f, &e)
	if e.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", e.Code, wire.CodeDeadlineExceeded)
	}
	resp := r.update(7, []wire.UpdateOp{motionOp(0, 4, 4)}) // same ID, fresh budget
	if resp.Applied != 1 {
		t.Fatal("retry after deadline refusal was replayed from cache instead of executed")
	}
}

// A refused request that is retried takes one slot of its client's dedup
// window: the checkpoint sidecar holds its receipt once, and the retry
// still replays after dedupWindow-1 further requests.
func TestDedupRefusedRetryTakesOneSlot(t *testing.T) {
	srv := &Server{dedup: map[string]*dedupCache{}}
	cache := srv.dedupFor("alice")
	run := func(id uint64, refused bool) {
		t.Helper()
		e, replay := cache.begin(id)
		if replay {
			t.Fatalf("request %d replayed on its first execution", id)
		}
		if refused {
			cache.remove(id)
		}
		e.finish(wire.Frame{Op: wire.OpResult, ID: id})
	}
	receipts := func() map[uint64]int {
		t.Helper()
		n := map[uint64]int{}
		err := readSidecar(srv.encodeSidecar(), func(r receiptRec) { n[r.Req]++ }, func(most.Prov) {})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	run(7, true)  // refused without executing: forgotten
	run(7, false) // the retry executes
	if n := receipts(); len(n) != 1 || n[7] != 1 {
		t.Fatalf("sidecar receipts by request = %v, want 7 once", n)
	}
	for id := uint64(100); id < 100+dedupWindow-1; id++ {
		run(id, false)
	}
	if _, replay := cache.begin(7); !replay {
		t.Fatal("the retry was evicted before dedupWindow requests followed it")
	}
	n := receipts()
	if len(n) != dedupWindow {
		t.Errorf("sidecar holds %d requests, want %d", len(n), dedupWindow)
	}
	for id, c := range n {
		if c != 1 {
			t.Errorf("sidecar holds request %d's receipt %d times", id, c)
		}
	}
}

func TestEpochFencing(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	defer srv.Abort()
	addr := srv.Addr().String()

	a, helloA := mustHello(t, addr, "alice", 5)
	if helloA.Resumed {
		t.Fatal("first epoch reported resumed")
	}

	// An older epoch is a zombie predecessor: refused outright.
	b, f := rawDial(t, addr, "alice", 4)
	defer b.c.Close()
	if f.Op != wire.OpError {
		t.Fatal("stale epoch accepted")
	}
	var e wire.ErrorResp
	_ = wire.Unmarshal(f, &e)
	if e.Code != wire.CodeStaleEpoch {
		t.Fatalf("code = %q, want %q", e.Code, wire.CodeStaleEpoch)
	}

	// A newer epoch resumes the identity and fences the old session.
	c, helloC := mustHello(t, addr, "alice", 6)
	defer c.c.Close()
	if !helloC.Resumed {
		t.Fatal("newer epoch not reported as resumed")
	}
	a.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.dec.Next(); err == nil {
		t.Fatal("zombie session survived a newer epoch's Hello")
	}
}

func TestHealthLifecycle(t *testing.T) {
	h := &obs.Health{}
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{Health: h})
	if got := h.State(); got != obs.StateReady {
		t.Fatalf("state after serve = %v, want ready", got)
	}

	m := http.NewServeMux()
	h.Mount(m)
	resp := httptest.NewRecorder()
	m.ServeHTTP(resp, httptest.NewRequest("GET", "/readyz", nil))
	if resp.Code != 200 {
		t.Fatalf("/readyz while ready = %d", resp.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := h.State(); got != obs.StateDraining {
		t.Fatalf("state after shutdown = %v, want draining", got)
	}
	resp = httptest.NewRecorder()
	m.ServeHTTP(resp, httptest.NewRequest("GET", "/readyz", nil))
	if resp.Code != 503 {
		t.Fatalf("/readyz while draining = %d, want 503", resp.Code)
	}
}

// A corrupt checkpoint is a hard recovery error — the server must refuse
// to start rather than serve from a guess (mostserver exits non-zero on
// this path).
func TestDurableRecoveryFailsOnCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	r, _ := mustHello(t, srv.Addr().String(), "alice", 1)
	r.update(1, []wire.UpdateOp{motionOp(0, 1, 1)})
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Abort()

	path := filepath.Join(dir, snapFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewDurable(dir, Config{}, seedFleet); err == nil {
		t.Fatal("recovery from a corrupt checkpoint must fail loudly")
	}
}

// A checkpoint that cannot write its snapshot is counted in
// server.checkpoint_errors — automatic and shutdown checkpoints alike —
// while the server keeps serving, and it leaves the WAL untruncated, so
// every acknowledged write survives a restart.
func TestDurableCheckpointFailureIsCountedAndSafe(t *testing.T) {
	dir := t.TempDir()
	// A directory at the snapshot's temp-file path makes every snapshot
	// write fail (the tests run as root, so permissions cannot).
	if err := os.Mkdir(filepath.Join(dir, snapFile+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv, _ := startDurable(t, dir, "", Config{Reg: reg, CheckpointEvery: 1})
	addr := srv.Addr().String()
	errs := reg.Counter("server.checkpoint_errors")

	r, _ := mustHello(t, addr, "alice", 1)
	for i := 0; i < 3; i++ {
		r.update(uint64(i+1), []wire.UpdateOp{motionOp(i, float64(i+1), 2)})
	}
	if got := errs.Value(); got != 3 {
		t.Fatalf("checkpoint_errors = %d after 3 failed automatic checkpoints", got)
	}
	if err := srv.Checkpoint(); err == nil {
		t.Fatal("explicit checkpoint reported success without a snapshot")
	}
	if got := reg.Counter("server.checkpoints").Value(); got != 0 {
		t.Fatalf("checkpoints = %d, want 0", got)
	}
	probe := r.update(4, []wire.UpdateOp{motionOp(3, -1, 0)}) // still serving
	before := r.snapshot()
	r.c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := errs.Value(); got != 6 {
		t.Fatalf("checkpoint_errors = %d, want 6 (3 automatic, 1 explicit, 1 after the probe, 1 at shutdown)", got)
	}

	srv2, info := startDurable(t, dir, addr, Config{})
	defer srv2.Abort()
	if info.Fresh || info.Report == nil || info.Report.Truncated {
		t.Fatalf("restart: %+v", info)
	}
	r2, _ := mustHello(t, addr, "alice", 2)
	if after := r2.snapshot(); string(after) != string(before) {
		t.Fatal("acknowledged writes lost across a failed checkpoint")
	}
	if replay := r2.update(4, []wire.UpdateOp{motionOp(3, -1, 0)}); replay.Version != probe.Version {
		t.Fatalf("retry of the last request re-executed: version %d, want %d", replay.Version, probe.Version)
	}
}

// A data directory written in a JSON on-disk format of earlier versions is
// refused with a *most.LegacyFormatError naming the offending file, and
// nothing in it changes: an old log is never read as a torn binary log, and
// JSON receipts are never dropped as undecodable.  The last two cases are
// what the release before this one wrote: a binary log and checkpoint
// beside JSON receipt notes or a JSON dedup sidecar.
func TestDurableRefusesLegacyDirectory(t *testing.T) {
	payload := `{"seq":1,"kind":"clock","now":3}`
	oldLog := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	jsonReceipt := []byte(`{"c":"alice","r":1,"op":32,"f":"AQAAAA=="}`)
	write := func(t *testing.T, dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string)
		want  string // the file the refusal names
	}{
		{"checkpointed", func(t *testing.T, dir string) {
			write(t, dir, walFile, []byte(oldLog))
			write(t, dir, legacySnapFile, []byte(`{"now": 3, "classes": [], "objects": []}`))
			write(t, dir, legacyDedupFile, []byte(`{"receipts": []}`))
		}, legacySnapFile},
		{"log only", func(t *testing.T, dir string) {
			write(t, dir, walFile, []byte(oldLog))
		}, walFile},
		{"json receipt notes", func(t *testing.T, dir string) {
			forgeNote(t, dir, legacyNoteTagReceipt, jsonReceipt)
		}, walFile},
		{"json dedup sidecar", func(t *testing.T, dir string) {
			srv, _ := startDurable(t, dir, "", Config{})
			r, _ := mustHello(t, srv.Addr().String(), "alice", 1)
			r.update(1, []wire.UpdateOp{motionOp(0, 1, 1)})
			r.c.Close()
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			srv.Abort()
			if err := os.Remove(filepath.Join(dir, dedupFile)); err != nil {
				t.Fatal(err)
			}
			write(t, dir, legacyDedupFile, []byte(`{"receipts": [`+string(jsonReceipt)+`]}`))
		}, legacyDedupFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			before := dirBytes(t, dir)
			_, _, err := NewDurable(dir, Config{}, seedFleet)
			var legacy *most.LegacyFormatError
			if !errors.As(err, &legacy) {
				t.Fatalf("NewDurable = %v, want a legacy-format refusal", err)
			}
			if filepath.Base(legacy.Path) != tc.want {
				t.Fatalf("refusal names %s, want %s: %v", legacy.Path, tc.want, err)
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused directory changed:\n before: %v\n after:  %v", keys(before), keys(after))
			}
		})
	}
}

// A receipt note that does not decode is exactly-once state recovery
// cannot rebuild: NewDurable must fail, naming the record, rather than
// serve without it (a retry of that request would apply twice).
func TestDurableRefusesUndecodableReceipt(t *testing.T) {
	dir := t.TempDir()
	rec := forgeNote(t, dir, noteTagReceipt, []byte("\x05alice\x01\x20")) // no payload length
	before := dirBytes(t, dir)
	_, _, err := NewDurable(dir, Config{}, seedFleet)
	if err == nil {
		t.Fatal("recovered past an undecodable receipt note")
	}
	if want := fmt.Sprintf("log record %d", rec); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "receipt") {
		t.Fatalf("error %q does not name the receipt at %s", err, want)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("failed recovery changed the directory")
	}
}

// forgeNote writes a durable directory's log by hand, as a server over a
// fresh directory would: the seed fleet's base image, then one note
// record.  It returns the note's 1-based record number.
func forgeNote(t *testing.T, dir, tag string, data []byte) uint64 {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := most.NewWAL(f)
	if err := seedFleet().AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendNote(tag, data); err != nil {
		t.Fatal(err)
	}
	return w.Records()
}

// dirBytes reads every file in dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reopenLogUntruncatable recovers the database a clean checkpoint left in
// dir (snapshot, empty log) and attaches it to that log through a plain
// writer, which a checkpoint cannot truncate: the checkpoint then writes
// its snapshot and fails, leaving exactly what a crash between its
// snapshot and its log truncation leaves.  The caller closes the file.
func reopenLogUntruncatable(t *testing.T, dir string) (*most.Database, *os.File) {
	t.Helper()
	db, _, err := most.RecoverFiles(filepath.Join(dir, snapFile), filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWALNoBase(most.NewWAL(f)); err != nil {
		t.Fatal(err)
	}
	return db, f
}

func compactJSON(t *testing.T, data []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, data); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func snapshotJSON(t *testing.T, db *most.Database) string {
	t.Helper()
	data, err := db.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	return compactJSON(t, data)
}

func setMotion(t *testing.T, db *most.Database, car int, v geom.Vector) {
	t.Helper()
	if err := db.SetMotion(most.ObjectID(vid(car)), v); err != nil {
		t.Fatal(err)
	}
}

// ingestAcrossCrash restarts the server from dir, checks it holds want's
// state, acknowledges a few writes (applied to want as well), kills it,
// restarts again and checks that every acknowledged write survived.
func ingestAcrossCrash(t *testing.T, dir string, want *most.Database) {
	t.Helper()
	srv, _ := startDurable(t, dir, "", Config{})
	r, _ := mustHello(t, srv.Addr().String(), "ingest", 1)
	if got, wantJSON := compactJSON(t, r.snapshot()), snapshotJSON(t, want); got != wantJSON {
		srv.Abort()
		t.Fatalf("recovered state differs from the state before the crash:\n%s\nwant:\n%s", got, wantJSON)
	}
	r.update(1, []wire.UpdateOp{motionOp(1, 3, 4)})
	r.call(wire.OpAdvance, 2, &wire.AdvanceReq{D: 1})
	r.update(3, []wire.UpdateOp{motionOp(2, -1, 0), motionOp(0, 0, 2)})
	setMotion(t, want, 1, geom.Vector{X: 3, Y: 4})
	want.Advance(1)
	setMotion(t, want, 2, geom.Vector{X: -1})
	setMotion(t, want, 0, geom.Vector{Y: 2})
	r.c.Close()
	srv.Abort()

	srv, _ = startDurable(t, dir, "", Config{})
	defer srv.Abort()
	r, _ = mustHello(t, srv.Addr().String(), "ingest", 2)
	if got, wantJSON := compactJSON(t, r.snapshot()), snapshotJSON(t, want); got != wantJSON {
		t.Fatalf("acknowledged writes lost across the restart:\n%s\nwant:\n%s", got, wantJSON)
	}
}

// A crash between a checkpoint's snapshot and its log truncation leaves
// the new snapshot beside a log it already holds.  Recovery must not
// replay those records over it (they would roll the state back), and
// writes acknowledged after the restart must survive the next one.
func TestDurableCheckpointWindowCrash(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Abort()

	db, f := reopenLogUntruncatable(t, dir)
	setMotion(t, db, 0, geom.Vector{X: 5})
	db.Advance(1)
	setMotion(t, db, 0, geom.Vector{X: 9})
	db.Advance(1)
	if err := db.Checkpoint(filepath.Join(dir, snapFile)); err == nil {
		t.Fatal("checkpoint truncated a log it cannot truncate")
	}
	f.Close()
	ingestAcrossCrash(t, dir, db)
}

// A record that passes its checksum but cannot be applied ends replay;
// the restarted server must cut the log there, or everything it appends
// behind the record is lost at the next recovery.
func TestDurableCutsLogAtRejectedRecord(t *testing.T) {
	dir := t.TempDir()
	srv, _ := startDurable(t, dir, "", Config{})
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Abort()

	want, _, err := most.RecoverFiles(filepath.Join(dir, snapFile), filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Log an update of an object the snapshot does not hold.
	db, f := reopenLogUntruncatable(t, dir)
	cls, _ := db.Class("Vehicles")
	ghost, err := most.NewObject("ghost", cls)
	if err != nil {
		t.Fatal(err)
	}
	db.DetachWAL()
	if err := db.Insert(ghost); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWALNoBase(most.NewWAL(f)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStatic("ghost", "PRICE", most.Float(1)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ingestAcrossCrash(t, dir, want)
}
