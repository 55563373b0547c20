package most

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime/metrics"
	"testing"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
)

// fuzzSeedDB builds a small logged database: one class, one moving
// object, a clock advance and a motion update, plus a receipt note.
func fuzzSeedDB(f *testing.F) (*Database, []byte) {
	var buf bytes.Buffer
	db := NewDatabase()
	c := MustClass("Vehicles", true, AttrDef{Name: "PRICE", Kind: Static})
	w := NewWAL(&buf)
	if err := db.AttachWAL(w); err != nil {
		f.Fatal(err)
	}
	if err := db.DefineClass(c); err != nil {
		f.Fatal(err)
	}
	o, _ := NewObject("v1", c)
	o, _ = o.WithPosition(motion.MovingFrom(geom.Point{X: 1}, geom.Vector{Y: 2}, db.Now()))
	o, _ = o.WithStatic("PRICE", Float(-0.0))
	if err := db.Insert(o); err != nil {
		f.Fatal(err)
	}
	db.Advance(5)
	if err := db.SetMotionProv("v1", geom.Vector{X: 3}, &Prov{Client: "c", Req: 7}); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendNote("req", []byte(`{"c":"c","r":7}`)); err != nil {
		f.Fatal(err)
	}
	return db, buf.Bytes()
}

// frame wraps a record payload in a frame with a correct CRC.
func frame(payload []byte) []byte {
	b := binfmt.AppendU32(nil, uint32(len(payload)))
	b = binfmt.AppendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzWALReplay feeds arbitrary bytes to the WAL replay path: corrupted or
// truncated logs must fail safe — a partial-recovery report, never a panic
// — and replay must be deterministic (same bytes, same recovered state).
// The only error is the refusal of a legacy JSON-line log.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real log, its torn prefix, and assorted near-miss frames.
	_, real := fuzzSeedDB(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(""))
	f.Add(walMagic)
	f.Add(walMagic[:3])
	f.Add([]byte("not a log at all"))
	// Hostile length: a frame declaring 4 GiB of payload.
	f.Add(append(bytes.Clone(walMagic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1))
	// Hostile count: a class record (valid CRC) declaring 2^40 attributes.
	hostile := []byte{recClass, 1, 0}
	hostile = binfmt.AppendStr(hostile, "C")
	hostile = binfmt.AppendBool(hostile, false)
	hostile = binfmt.AppendUvarint(hostile, 1<<40)
	f.Add(append(bytes.Clone(walMagic), frame(hostile)...))
	// Bad CRC on the first record.
	badCRC := bytes.Clone(real)
	badCRC[len(walMagic)+4] ^= 1
	f.Add(badCRC)
	// A legacy JSON line: refused, never read.
	f.Add([]byte("deadbeef {\"seq\":1,\"kind\":\"clock\",\"now\":3}\n"))

	// Each input is replayed as is and, so the fuzzer reaches the record
	// decoder behind the checksum, as one CRC-valid frame after the header.
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, append(bytes.Clone(walMagic), frame(data)...))
	})
}

func checkReplay(t *testing.T, data []byte) {
	db1, rep1, err := Recover(nil, data)
	var legacy *LegacyFormatError
	if errors.As(err, &legacy) {
		return
	}
	if err != nil {
		t.Fatalf("Recover must not error on WAL damage: %v", err)
	}
	if db1 == nil || rep1 == nil {
		t.Fatal("Recover must always return a database and a report")
	}
	if _, err := db1.SnapshotJSON(); err != nil {
		t.Fatalf("recovered database cannot snapshot: %v", err)
	}
	db2, rep2, _ := Recover(nil, data)
	if *rep1 != *rep2 || db1.Now() != db2.Now() || db1.Version() != db2.Version() || !bytes.Equal(checkpointImage(db1), checkpointImage(db2)) {
		t.Fatal("replay is not deterministic")
	}
}

// checkpointImage returns the database's checkpoint bytes.
func checkpointImage(db *Database) []byte {
	return db.Snapshot().appendCheckpoint(nil)
}

// withCRC appends the checkpoint trailer to an image body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// FuzzCheckpointLoad feeds arbitrary bytes to the checkpoint loader: no
// panic, no allocation beyond a fixed multiple of the input length (a
// hostile count must not size an allocation), and a deterministic result.
func FuzzCheckpointLoad(f *testing.F) {
	db, _ := fuzzSeedDB(f)
	real := checkpointImage(db)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(""))
	f.Add(ckptMagic)
	f.Add([]byte(`{"now": 3}`))
	body := binfmt.AppendVarint(bytes.Clone(ckptMagic), 0)
	f.Add(withCRC(binfmt.AppendUvarint(bytes.Clone(body), math.MaxUint64))) // hostile class count
	f.Add(withCRC(binfmt.AppendUvarint(binfmt.AppendUvarint(bytes.Clone(body), 0), 1<<62)))
	f.Add(withCRC(binfmt.AppendVarint(bytes.Clone(ckptMagic), -1))) // negative clock
	badCRC := bytes.Clone(real)
	badCRC[len(badCRC)-1] ^= 1
	f.Add(badCRC)

	// Each input is loaded as is and, so the fuzzer reaches the decoder
	// behind the checksum, as a body behind the magic with a valid CRC.
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		checkLoad(t, withCRC(append(bytes.Clone(ckptMagic), data...)))
	})
}

// heapAllocs reads the cumulative heap allocation counter without the
// stop-the-world of runtime.ReadMemStats (it may lag by the allocator's
// per-CPU caches, far below the bound checked).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func checkLoad(t *testing.T, data []byte) {
	before := heapAllocs()
	db1, _, err1 := Recover(data, nil)
	if alloc, bound := heapAllocs()-before, uint64(1<<20+1024*len(data)); alloc > bound {
		t.Fatalf("loading %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
	db2, _, err2 := Recover(data, nil)
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("load is not deterministic: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if db1.Now() != db2.Now() || db1.Version() != db2.Version() || !bytes.Equal(checkpointImage(db1), checkpointImage(db2)) {
		t.Fatal("load is not deterministic")
	}
	if _, err := db1.SnapshotJSON(); err != nil {
		t.Fatalf("loaded database cannot snapshot: %v", err)
	}
}
