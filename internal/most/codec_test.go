package most

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// Awkward values the binary format must carry exactly.  Infinities occur
// only in motion pieces: static floats and A.values must be finite
// (TestNonFiniteValuesRejected).
var (
	oddFloats  = []float64{0, math.Copysign(0, -1), 1.5, -7e-310, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e300}
	oddInfs    = []float64{math.Inf(1), math.Inf(-1)}
	oddTicks   = []temporal.Tick{0, 1, -1, temporal.MinTick, temporal.MaxTick, math.MinInt64, math.MaxInt64}
	oddStrings = []string{"", "a", "Zürich–東京", "line\nbreak\x00nul", "\xff\xfe not utf-8"}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// randomFunc draws a motion function: constant, linear, or piecewise with
// optional acceleration (never on POSITION attributes), with -0.0 and
// infinite slopes among the pieces.
func randomFunc(r *rand.Rand, linear bool) motion.Func {
	n := r.Intn(4)
	ps := make([]motion.Piece, n)
	start := 0.0
	for i := range ps {
		ps[i].Start = start
		if i == 0 && r.Intn(3) == 0 {
			ps[i].Start = math.Copysign(0, -1)
		}
		start += 1 + float64(r.Intn(50))
		ps[i].Slope = pick(r, append(oddFloats, oddInfs...))
		if !linear && r.Intn(2) == 0 {
			ps[i].Accel = pick(r, append(oddFloats, oddInfs...))
		}
	}
	return motion.MustFunc(ps...)
}

// randomDatabase builds a database of random classes (some with more than
// eight attributes, so presence masks span bytes) and objects whose
// attributes are randomly absent, NULL, or set to awkward values.
func randomDatabase(t *testing.T, r *rand.Rand) *Database {
	t.Helper()
	db := NewDatabase()
	db.Advance(temporal.Tick(r.Int63n(1 << 40)))
	var classes []*Class
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		var attrs []AttrDef
		for j, m := 0, r.Intn(12); j < m; j++ {
			kind := Static
			if r.Intn(2) == 0 {
				kind = Dynamic
			}
			attrs = append(attrs, AttrDef{Name: fmt.Sprintf("A%d·%s", j, pick(r, oddStrings)), Kind: kind})
		}
		c := MustClass(fmt.Sprintf("C%d%s", i, pick(r, oddStrings)), r.Intn(2) == 0, attrs...)
		if err := db.DefineClass(c); err != nil {
			t.Fatal(err)
		}
		classes = append(classes, c)
	}
	for i, n := 0, r.Intn(40); i < n; i++ {
		c := pick(r, classes)
		o, err := NewObject(ObjectID(fmt.Sprintf("%s#%d", pick(r, oddStrings), i)), c)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range c.Attrs() {
			if r.Intn(3) == 0 {
				continue // absent
			}
			if a.Kind == Static {
				v := pick(r, []Value{Null(), Float(pick(r, oddFloats)), Str(pick(r, oddStrings)), Bool(r.Intn(2) == 0)})
				o, err = o.WithStatic(a.Name, v)
			} else {
				d := motion.DynamicAttr{
					Value:      pick(r, oddFloats),
					UpdateTime: pick(r, oddTicks),
					Function:   randomFunc(r, isPositionAttr(a.Name)),
				}
				o, err = o.WithDynamic(a.Name, d)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Random databases survive checkpoint → recover with a byte-identical
// SnapshotJSON, and their checkpoints are deterministic: two checkpoints
// of one database, and the checkpoint of the recovered copy, are
// byte-identical.  The same holds for recovery from the WAL alone, whose
// update records carry the same object encoding.
func TestCheckpointRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "checkpoint.bin")
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomDatabase(t, r)
		var log bytes.Buffer
		if err := db.AttachWAL(NewWAL(&log)); err != nil {
			t.Fatal(err)
		}
		want := snap(t, db)
		fromLog, rep, err := Recover(nil, log.Bytes())
		if err != nil || rep.Truncated {
			t.Fatalf("seed %d: base-image replay: err=%v rep=%+v", seed, err, rep)
		}
		if got := snap(t, fromLog); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: WAL replay differs:\n%s\nvs\n%s", seed, got, want)
		}

		if err := db.Checkpoint(snapPath); err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(snapPath); err != nil {
			t.Fatal(err)
		}
		second, _ := os.ReadFile(snapPath)
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d: two checkpoints of one database differ", seed)
		}
		got, rep, err := RecoverFiles(snapPath, filepath.Join(dir, "none.wal"))
		if err != nil || rep.Truncated {
			t.Fatalf("seed %d: recover: err=%v rep=%+v", seed, err, rep)
		}
		if g := snap(t, got); !bytes.Equal(g, want) {
			t.Fatalf("seed %d: recovered SnapshotJSON differs:\n%s\nvs\n%s", seed, g, want)
		}
		if !bytes.Equal(checkpointImage(got), first) {
			t.Fatalf("seed %d: checkpoint of the recovered database differs", seed)
		}
	}
}

// A database's checkpoint stays well under the size of its JSON export.
func TestCheckpointSmallerThanJSON(t *testing.T) {
	db := benchDatabase(t, 2000)
	img := checkpointImage(db)
	js := snap(t, db)
	if len(img)*4 > len(js) {
		t.Fatalf("checkpoint %d B vs JSON %d B: want under a quarter", len(img), len(js))
	}
}

// Bad pieces are rejected through motion.NewFunc, and a POSITION
// attribute with acceleration is rejected as on the mutation path.
func TestCheckpointRejectsInvalidFunctions(t *testing.T) {
	db, c := newTestDB(t)
	const marker = 12345.678 // a slope whose encoding is unique in the image
	insertCar(t, db, c, "car", geom.Point{X: 1, Y: 2}, geom.Vector{X: marker})
	img := checkpointImage(db)
	body := img[:len(img)-4]
	piece := binfmt.AppendF64([]byte{pieceSlope}, marker)
	i := bytes.Index(body, piece)
	if i < 0 || bytes.Count(body, piece) != 1 {
		t.Fatal("X.POSITION's piece not found once in the image")
	}
	load := func(flags uint8, fields ...float64) error {
		b := append(bytes.Clone(body[:i]), flags)
		for _, f := range fields {
			b = binfmt.AppendF64(b, f)
		}
		b = append(b, body[i+len(piece):]...)
		_, _, err := Recover(withCRC(b), nil)
		return err
	}
	if err := load(pieceSlope, marker); err != nil {
		t.Fatalf("re-encoding the untouched piece fails: %v", err)
	}
	if load(pieceStart|pieceSlope, -1, marker) == nil {
		t.Fatal("negative piece offset accepted")
	}
	if load(pieceSlope|pieceAccel, marker, 2) == nil {
		t.Fatal("accelerating POSITION accepted")
	}
	if load(pieceSlope|0x80, marker) == nil {
		t.Fatal("unknown piece flags accepted")
	}
}

// NaN and infinite static floats and A.values cannot be exported as JSON,
// so no path stores one: the mutation API refuses them, and so does
// recovery when a CRC-valid checkpoint or log record carries one.
func TestNonFiniteValuesRejected(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "car", geom.Point{X: 1, Y: 2}, geom.Vector{X: 1})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := db.SetStatic("car", "PRICE", Float(f)); err == nil {
			t.Fatalf("static %v accepted", f)
		}
		if err := db.SetDynamic("car", "FUEL", motion.DynamicAttr{Value: f}); err == nil {
			t.Fatalf("A.value %v accepted", f)
		}
		o, _ := NewObject("car2", c)
		if _, err := o.WithPosition(motion.MovingFrom(geom.Point{X: f}, geom.Vector{}, 0)); err == nil {
			t.Fatalf("POSITION value %v accepted", f)
		}
	}
	if _, err := db.SnapshotJSON(); err != nil {
		t.Fatal(err)
	}

	// Bypass the mutation API to forge the encodings.
	forge := func(mut func(o *Object)) *Object {
		o, _ := db.Get("car")
		c := *o
		c.statics, c.dynamics = map[string]Value{}, map[string]motion.DynamicAttr{}
		maps.Copy(c.statics, o.statics)
		maps.Copy(c.dynamics, o.dynamics)
		mut(&c)
		return &c
	}
	for name, o := range map[string]*Object{
		"static": forge(func(o *Object) { o.statics["PRICE"] = Float(math.Inf(1)) }),
		"value":  forge(func(o *Object) { o.dynamics["FUEL"] = motion.DynamicAttr{Value: math.NaN()} }),
	} {
		body := binfmt.AppendVarint(bytes.Clone(ckptMagic), int64(db.Now()))
		body = binfmt.AppendUvarint(body, 1)
		body = appendClass(body, c)
		body = binfmt.AppendUvarint(body, 1)
		body = binfmt.AppendStr(body, string(o.id))
		body = appendObject(body, o)
		if _, _, err := Recover(withCRC(body), nil); err == nil {
			t.Fatalf("checkpoint with a non-finite %s accepted", name)
		}

		var log bytes.Buffer
		w := NewWAL(&log)
		w.append(&walRecord{kind: recClass, class: c})
		w.append(&walRecord{kind: recUpdate, upd: Update{Kind: UpdateInsert, Object: o.id, After: o}})
		db2, rep, err := Recover(nil, log.Bytes())
		if err != nil || !rep.Truncated || rep.BadRecord != 2 {
			t.Fatalf("log with a non-finite %s: err=%v rep=%+v", name, err, rep)
		}
		if _, err := db2.SnapshotJSON(); err != nil {
			t.Fatal(err)
		}
	}
}

// A corrupted checkpoint is a hard error, never a guess.
func TestCheckpointCorruptionIsAnError(t *testing.T) {
	db, c := newTestDB(t)
	insertCar(t, db, c, "car", geom.Point{X: 1, Y: 2}, geom.Vector{X: 1})
	img := checkpointImage(db)
	for i := range img {
		bad := bytes.Clone(img)
		bad[i] ^= 0x10
		if _, _, err := Recover(bad, nil); err == nil {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
	}
	for n := 0; n < len(img); n++ {
		if _, _, err := Recover(img[:n], nil); err == nil && n > 0 {
			t.Fatalf("checkpoint truncated to %d bytes accepted", n)
		}
	}
}

// legacyWALLine is one record in the JSON-line log format of earlier
// versions: CRC-32 in hex, a space, the JSON payload.
func legacyWALLine(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

// Files in the JSON on-disk format of earlier versions are refused with a
// LegacyFormatError naming the file and format, and never modified.
func TestLegacyFilesRefusedUntouched(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	snapPath := filepath.Join(dir, "checkpoint.json")
	oldLog := legacyWALLine(`{"seq":1,"kind":"clock","now":3}`) + "0000"
	oldSnap := `{"now": 3, "classes": [], "objects": []}`
	if err := os.WriteFile(walPath, []byte(oldLog), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, []byte(oldSnap), 0o644); err != nil {
		t.Fatal(err)
	}

	var legacy *LegacyFormatError
	if _, err := OpenWAL(walPath); !errors.As(err, &legacy) || legacy.Path != walPath || legacy.Format != legacyWAL {
		t.Fatalf("OpenWAL on a JSON-line log: %v", err)
	}
	if _, _, err := RecoverFiles(filepath.Join(dir, "none"), walPath); !errors.As(err, &legacy) || legacy.Path != walPath {
		t.Fatalf("RecoverFiles on a JSON-line log: %v", err)
	}
	if _, _, err := RecoverFiles(snapPath, filepath.Join(dir, "none")); !errors.As(err, &legacy) || legacy.Path != snapPath || legacy.Format != legacyCheckpoint {
		t.Fatalf("RecoverFiles on a JSON checkpoint: %v", err)
	}
	for path, want := range map[string]string{walPath: oldLog, snapPath: oldSnap} {
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("%s modified: %q", path, got)
		}
	}
}

// A log that is neither binary nor legacy is refused by OpenWAL (never
// truncated), while a torn header — a crash during the very first write —
// is repaired like any torn tail.
func TestOpenWALHeaderChecks(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.wal")
	if err := os.WriteFile(garbage, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(garbage); err == nil {
		t.Fatal("OpenWAL accepted a file with a foreign header")
	}
	if got, _ := os.ReadFile(garbage); string(got) != "not a log" {
		t.Fatal("refused log was modified")
	}

	torn := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(torn, walMagic[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(torn)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	db.Advance(4)
	w.Close()
	got, rep, err := RecoverFiles(filepath.Join(dir, "none"), torn)
	if err != nil || rep.Truncated || got.Now() != 4 {
		t.Fatalf("after torn-header repair: err=%v rep=%+v now=%d", err, rep, got.Now())
	}
}

// An object's transfer encoding round-trips, names its class without a
// decode, and is refused by a receiver whose class of that name lists the
// same attributes in another order.
func TestTransferObjectChecksSchema(t *testing.T) {
	a, b := AttrDef{Name: "A", Kind: Static}, AttrDef{Name: "B", Kind: Static}
	declared, swapped := MustClass("Tags", false, a, b), MustClass("Tags", false, b, a)
	build := func(c *Class) *Object {
		o, err := NewObject("t1", c)
		if err != nil {
			t.Fatal(err)
		}
		if o, err = o.WithStatic("A", Float(1)); err != nil {
			t.Fatal(err)
		}
		if o, err = o.WithStatic("B", Float(2)); err != nil {
			t.Fatal(err)
		}
		return o
	}
	db := NewDatabase()
	if err := db.DefineClass(declared); err != nil {
		t.Fatal(err)
	}

	data := EncodeObject(build(declared))
	if class, err := ObjectClass(data); err != nil || class != "Tags" {
		t.Fatalf("ObjectClass = %q, %v; want Tags", class, err)
	}
	o, err := DecodeObject(db, data)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Static("A"); v.F != 1 {
		t.Fatalf("A = %v, want 1", v)
	}

	if _, err := DecodeObject(db, EncodeObject(build(swapped))); err == nil {
		t.Fatal("object of a reordered class decoded")
	}
}
