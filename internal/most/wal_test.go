package most

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
)

// buildScript applies a fixed sequence of explicit updates: the workload
// every WAL test replays.
func buildScript(t *testing.T, db *Database, c *Class) {
	t.Helper()
	insertCar(t, db, c, "car1", geom.Point{X: 1, Y: 2}, geom.Vector{X: 1})
	insertCar(t, db, c, "car2", geom.Point{X: -5}, geom.Vector{Y: 2})
	db.Advance(3)
	if err := db.SetMotion("car1", geom.Vector{X: 2, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStatic("car2", "PRICE", Float(99)); err != nil {
		t.Fatal(err)
	}
	db.Advance(4)
	insertCar(t, db, c, "car3", geom.Point{Y: 9}, geom.Vector{X: -1})
	if err := db.Delete("car2"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMotion("car3", geom.Vector{}); err != nil {
		t.Fatal(err)
	}
	db.Advance(2)
}

func snap(t *testing.T, db *Database) []byte {
	t.Helper()
	data, err := db.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The acceptance test: kill-and-restart, WAL replay reproduces a
// byte-identical serialized database state.
func TestWALReplayByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	w := NewWAL(&buf)
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	// "Crash": drop db on the floor, rebuild from the log alone.
	db2, rep, err := Recover(nil, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatalf("clean log reported truncated: %+v", rep)
	}
	if got, want := snap(t, db2), snap(t, db); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n--- live ---\n%s\n--- recovered ---\n%s", want, got)
	}
	if db2.Now() != db.Now() || db2.Count() != db.Count() {
		t.Fatalf("clock/count differ: %d/%d vs %d/%d", db2.Now(), db2.Count(), db.Now(), db.Count())
	}
}

// Attaching a WAL to a database that already holds state writes a base
// image first, so the log alone still reconstructs everything.
func TestWALBootstrapOfNonEmptyDatabase(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "pre", geom.Point{X: 7}, geom.Vector{Y: 1})
	db.Advance(5)

	var buf bytes.Buffer
	if err := db.AttachWAL(NewWAL(&buf)); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)

	db2, rep, err := Recover(nil, buf.Bytes())
	if err != nil || rep.Truncated {
		t.Fatalf("err=%v rep=%+v", err, rep)
	}
	if !bytes.Equal(snap(t, db2), snap(t, db)) {
		t.Fatal("bootstrap + tail replay differs from live state")
	}
}

func TestAttachWALTwiceFails(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.AttachWAL(NewWAL(&bytes.Buffer{})); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(NewWAL(&bytes.Buffer{})); err == nil {
		t.Fatal("second AttachWAL should fail")
	}
	if err := db.AttachWAL(nil); err == nil {
		t.Fatal("nil WAL should fail")
	}
}

// Checkpoint + post-checkpoint tail via the file-backed paths, including a
// simulated process restart reopening the same WAL file.
func TestCheckpointAndFileRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "most.wal")
	snapPath := filepath.Join(dir, "most.snap")

	w, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	db, c := newTestDB(t)
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)

	if err := db.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	if n := w.Records(); n != 0 {
		t.Fatalf("WAL not truncated by checkpoint: %d records", n)
	}

	// Post-checkpoint tail.
	insertCar(t, db, c, "late", geom.Point{X: 100}, geom.Vector{X: -3})
	db.Advance(6)
	if err := db.SetMotion("late", geom.Vector{Y: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover from snapshot + tail.
	db2, rep, err := RecoverFiles(snapPath, walPath)
	if err != nil || rep.Truncated {
		t.Fatalf("err=%v rep=%+v", err, rep)
	}
	if !bytes.Equal(snap(t, db2), snap(t, db)) {
		t.Fatal("snapshot+tail recovery differs from live state")
	}

	// Second incarnation keeps logging into the same (reopened) WAL
	// without re-bootstrapping, and recovers again.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := db2.AttachWAL(w2); err != nil {
		t.Fatal(err)
	}
	insertCar(t, db2, c2class(t, db2), "post-restart", geom.Point{Y: -4}, geom.Vector{X: 1})
	db2.Advance(1)

	db3, rep, err := RecoverFiles(snapPath, walPath)
	if err != nil || rep.Truncated {
		t.Fatalf("err=%v rep=%+v", err, rep)
	}
	if !bytes.Equal(snap(t, db3), snap(t, db2)) {
		t.Fatal("second-incarnation recovery differs")
	}
}

// c2class fetches the Vehicles class registered in a recovered database.
func c2class(t *testing.T, db *Database) *Class {
	t.Helper()
	c, ok := db.Class("Vehicles")
	if !ok {
		t.Fatal("recovered database lost the Vehicles class")
	}
	return c
}

// logFrames splits a log into its raw frames (header stripped), failing
// the test on a torn tail.
func logFrames(t testing.TB, log []byte) [][]byte {
	t.Helper()
	log = bytes.TrimPrefix(log, walMagic)
	var out [][]byte
	for len(log) > 0 {
		if len(log) < frameHeader || len(log)-frameHeader < int(binary.LittleEndian.Uint32(log)) {
			t.Fatalf("torn frame after %d records", len(out))
		}
		size := frameHeader + int(binary.LittleEndian.Uint32(log))
		out = append(out, log[:size])
		log = log[size:]
	}
	return out
}

// A torn tail (half-written final record) costs only the torn suffix.
func TestRecoverTornTail(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	if err := db.AttachWAL(NewWAL(&buf)); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)

	whole := buf.Bytes()
	frames := logFrames(t, whole)
	if len(frames) < 3 {
		t.Fatalf("script too short: %d records", len(frames))
	}
	// Cut the final record in half, as a crash mid-write would.
	last := frames[len(frames)-1]
	intact := whole[:len(whole)-len(last)]
	torn := append(bytes.Clone(intact), last[:len(last)/2]...)

	db2, rep, err := Recover(nil, torn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Records != len(frames)-1 || rep.BadRecord != len(frames) {
		t.Fatalf("report = %+v, want truncation at record %d after %d records", rep, len(frames), len(frames)-1)
	}
	// The recovered prefix must equal a database that stopped one update
	// earlier — rebuild the reference by replaying the intact prefix.
	ref, rep2, err := Recover(nil, intact)
	if err != nil || rep2.Truncated {
		t.Fatalf("reference replay: err=%v rep=%+v", err, rep2)
	}
	if !bytes.Equal(snap(t, db2), snap(t, ref)) {
		t.Fatal("torn-tail recovery does not equal the intact prefix")
	}
}

// Reopening a crash-damaged WAL file must repair the tail before
// appending: records written after the reopen land in their own frames and
// survive recovery, instead of being swallowed by a torn frame's declared
// length, or left behind a frame replay stops at, and lost.  Power loss
// with unsynced appends can leave a zero-filled tail; a frame of zeros has
// a valid CRC (that of the empty payload), so it must be dropped as the
// empty record no payload can be.
func TestOpenWALRepairsTornTailBeforeAppending(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage rewrites the log, whose final frame is last; drop is the
		// number of final frames that must not survive.
		damage func(log, last []byte) []byte
		drop   int
	}{
		{"torn", func(log, last []byte) []byte {
			return append(bytes.Clone(log[:len(log)-len(last)]), last[:len(last)/2]...)
		}, 1},
		{"zero-filled", func(log, _ []byte) []byte {
			return append(bytes.Clone(log), make([]byte, 16)...)
		}, 0},
		{"bad checksum", func(log, last []byte) []byte {
			log = bytes.Clone(log)
			log[len(log)-len(last)+4] ^= 1
			return log
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "most.wal")

			w, err := OpenWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			db, c := newTestDB(t)
			if err := db.AttachWAL(w); err != nil {
				t.Fatal(err)
			}
			buildScript(t, db, c)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// "Crash": damage the tail of the log.
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			frames := logFrames(t, data)
			if err := os.WriteFile(walPath, tc.damage(data, frames[len(frames)-1]), 0o644); err != nil {
				t.Fatal(err)
			}

			// Reopen: the dead tail must be truncated away and the
			// sequence counter resumed at the surviving record count.
			w2, err := OpenWAL(walPath)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if got, want := w2.Records(), uint64(len(frames)-tc.drop); got != want {
				t.Fatalf("reopened WAL resumed at seq %d, want %d", got, want)
			}

			// Recover the surviving prefix and keep committing into the
			// same log.
			db2, rep, err := RecoverFiles(filepath.Join(dir, "none.snap"), walPath)
			if err != nil || rep.Truncated || rep.Records != len(frames)-tc.drop {
				t.Fatalf("post-repair recovery: err=%v rep=%+v", err, rep)
			}
			if err := db2.AttachWAL(w2); err != nil {
				t.Fatal(err)
			}
			db2.Advance(7)
			insertCar(t, db2, c2class(t, db2), "reborn", geom.Point{X: 3}, geom.Vector{Y: -2})

			// The post-reopen records must recover too — nothing silently
			// discarded.
			db3, rep, err := RecoverFiles(filepath.Join(dir, "none.snap"), walPath)
			if err != nil || rep.Truncated {
				t.Fatalf("second recovery: err=%v rep=%+v", err, rep)
			}
			if !bytes.Equal(snap(t, db3), snap(t, db2)) {
				t.Fatal("recovery after reopen-and-append differs from live state")
			}
			if db3.Now() != db2.Now() {
				t.Fatalf("clock = %d, want %d", db3.Now(), db2.Now())
			}
			if _, ok := db3.Get("reborn"); !ok {
				t.Fatal("post-reopen insert lost")
			}
		})
	}
}

// A corrupted record in the middle of the log stops replay there: the
// records before it are recovered, nothing after it is.
func TestRecoverCorruptMiddleStopsThere(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	if err := db.AttachWAL(NewWAL(&buf)); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)

	data := bytes.Clone(buf.Bytes())
	frames := logFrames(t, data)
	bad := -1
	for i := len(frames) / 2; i < len(frames); i++ {
		if frames[i][frameHeader] == recUpdate {
			bad = i
			break
		}
	}
	if bad < 0 {
		t.Fatal("no update record in the second half of the log")
	}
	// Flip one payload byte of that update record in place.
	frames[bad][frameHeader+2] ^= 0x40
	db2, rep, err := Recover(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || !strings.Contains(rep.Reason, "checksum") || rep.BadRecord != bad+1 || rep.Records != bad {
		t.Fatalf("report = %+v, want checksum failure at record %d", rep, bad+1)
	}
	if db2 == nil {
		t.Fatal("partial recovery must still return a database")
	}
}

func TestRecoverRejectsBadSnapshot(t *testing.T) {
	if _, _, err := Recover([]byte("not a checkpoint"), nil); err == nil {
		t.Fatal("bad snapshot must be an error")
	}
}

func TestRecoverEmptyInputs(t *testing.T) {
	db, rep, err := Recover(nil, nil)
	if err != nil || rep.Truncated || db.Count() != 0 || db.Now() != 0 {
		t.Fatalf("empty recovery: err=%v rep=%+v", err, rep)
	}
	// Missing files behave like empty inputs.
	dir := t.TempDir()
	db2, rep2, err := RecoverFiles(filepath.Join(dir, "nope.snap"), filepath.Join(dir, "nope.wal"))
	if err != nil || rep2.Truncated || db2.Count() != 0 {
		t.Fatalf("missing-file recovery: err=%v rep=%+v", err, rep2)
	}
}

// Replay commits one update per logged update record, in order: the
// recovered database counts the same Version and holds the same state.
func TestRecoveredLogIsOrdered(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	if err := db.AttachWAL(NewWAL(&buf)); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c)
	db2, _, err := Recover(nil, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if db2.Version() != db.Version() {
		t.Fatalf("recovered version %d, live has %d", db2.Version(), db.Version())
	}
	if !bytes.Equal(checkpointImage(db2), checkpointImage(db)) {
		t.Fatal("recovered state differs from the live state")
	}
}

// A WAL whose writer fails goes sticky-broken instead of failing commits.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 2 {
		return 0, os.ErrClosed
	}
	return len(p), nil
}

func TestWALWriteErrorIsStickyNotFatal(t *testing.T) {
	db, c := newTestDB(t)
	w := NewWAL(&failingWriter{})
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	buildScript(t, db, c) // must not panic or fail despite the dead writer
	if w.Err() == nil {
		t.Fatal("write failure not surfaced")
	}
	if db.Count() == 0 {
		t.Fatal("database should keep serving after WAL failure")
	}
}

func TestWALSnapshotVsReplayAgreeWithMixedAttrs(t *testing.T) {
	var buf bytes.Buffer
	db := NewDatabase()
	if err := db.AttachWAL(NewWAL(&buf)); err != nil {
		t.Fatal(err)
	}
	plain := MustClass("Sensors", false,
		AttrDef{Name: "NAME", Kind: Static},
		AttrDef{Name: "TEMP", Kind: Dynamic},
	)
	if err := db.DefineClass(plain); err != nil {
		t.Fatal(err)
	}
	o, _ := NewObject("s1", plain)
	o, _ = o.WithStatic("NAME", Str("roof"))
	o, _ = o.WithDynamic("TEMP", motion.DynamicAttr{
		Value: 20, UpdateTime: 0,
		Function: motion.MustFunc(motion.Piece{Start: 0, Slope: 0.5}, motion.Piece{Start: 10, Slope: -0.25}),
	})
	if err := db.Insert(o); err != nil {
		t.Fatal(err)
	}
	db.Advance(12)
	if err := db.SetDynamic("s1", "TEMP", motion.LinearFrom(26, 12, -1)); err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(nil, buf.Bytes())
	if err != nil || rep.Truncated {
		t.Fatalf("err=%v rep=%+v", err, rep)
	}
	if !bytes.Equal(snap(t, db2), snap(t, db)) {
		t.Fatal("mixed-attribute replay differs")
	}
}
