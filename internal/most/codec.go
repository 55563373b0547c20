package most

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// This file is the binary encoding of the durable path and of object
// transfer: the checkpoint file, the write-ahead log records (wal.go) and
// the objects the wire carries (EncodeObject) share one class and one
// object encoding, built from the internal/binfmt primitives.  JSON
// remains only as the human-readable export (serialize.go).
//
// # Checkpoint
//
//	magic    "MOSTCKP" + version byte 1
//	now      varint
//	classes  uvarint count, then per class (sorted by name):
//	           name str · spatial u8 · uvarint count of declared attrs,
//	           each name str · dynamic u8 (implicit POSITION attrs elided)
//	objects  uvarint count, then per object (strictly increasing id):
//	           id str · object body
//	crc      u32, IEEE CRC-32 of every preceding byte
//
// An object body is the class name (str), then a presence mask of
// ceil(len(attrs)/8) bytes over the class schema, including the implicit
// POSITION attributes (bit i set: attribute i is stored), then the stored
// attributes in schema order.  Absent attributes stay absent on decode, so
// a recovered database serializes to the same SnapshotJSON.
//
//	static   kind u8 (0 null, 1 float, 2 string, 3 bool), then f64 | str | u8
//	dynamic  A.value f64 · A.updatetime varint · uvarint piece count, each
//	         piece a flags u8 (bit 0 Start, bit 1 Slope, bit 2 Accel is
//	         stored) followed by the stored fields as f64
//
// A piece field is stored exactly when its bits are nonzero, so the common
// linear piece {0, slope, 0} costs 9 bytes and -0.0 survives.  Pieces are
// rebuilt through motion.NewFunc, which rejects invalid ones.
//
// # Transferred object
//
//	id str · schema u32 · object body
//
// The wire's insert ops and handoffs carry one object this way.  schema is
// the IEEE CRC-32 of the class's checkpoint encoding (name, spatial flag,
// attribute names and kinds in declaration order).  The receiver decodes
// the body against its own class of that name and refuses the object when
// the digests differ, so a class declared with the same attributes in
// another order never has values land on the wrong attribute.  The class
// name is the first field of the body, so a router reads it without
// decoding the object (ObjectClass).
//
// # Log record payload
//
//	kind u8 · seq uvarint · prov flag u8 [client str · req uvarint · op varint]
//	class   the checkpoint's class encoding
//	clock   now varint
//	update  tick varint · update kind u8 · object str · attr str ·
//	        post-image flag u8 [object body]
//	note    tag str · data bytes
//	reset   (nothing)

// File magics: seven identifying bytes plus a format version byte.
var (
	ckptMagic = []byte("MOSTCKP\x01")
	walMagic  = []byte("MOSTWAL\x01")
)

// WAL record kinds.
const (
	recClass  uint8 = 1
	recClock  uint8 = 2
	recUpdate uint8 = 3
	recNote   uint8 = 4
	recReset  uint8 = 5
)

// Minimum encoded sizes, used to bound hostile element counts.
const (
	minClassSize  = 3 // empty name, spatial, zero attrs
	minAttrSize   = 2 // empty name, dynamic flag
	minObjectSize = 3 // one-byte id, class name length, empty mask
	minPieceSize  = 1 // flags only
)

// Piece field flags.
const (
	pieceStart uint8 = 1 << iota
	pieceSlope
	pieceAccel
)

// LegacyFormatError reports a data file written in a JSON on-disk format
// that preceded the binary ones: a checkpoint or log here, a dedup sidecar
// or a log with receipt notes in internal/server.  Such files are never
// read or modified: the state must be exported with the old server's
// snapshot and loaded into a fresh data directory with SnapshotLoad.
type LegacyFormatError struct {
	Path   string // the offending file, when known
	Format string // e.g. "JSON checkpoint" or "JSON-line WAL"
}

func (e *LegacyFormatError) Error() string {
	name := e.Path
	if name == "" {
		name = "input"
	}
	return fmt.Sprintf("most: %s is a legacy %s, which this version does not read; "+
		"export the state with the old server's snapshot and load it into an empty data directory with SnapshotLoad",
		name, e.Format)
}

// Legacy format names.
const (
	legacyCheckpoint = "JSON checkpoint"
	legacyWAL        = "JSON-line WAL"
)

// isLegacyCheckpoint reports whether data looks like a JSON snapshot.
func isLegacyCheckpoint(data []byte) bool {
	data = bytes.TrimLeft(data, " \t\r\n")
	return len(data) > 0 && data[0] == '{'
}

// isLegacyWAL reports whether data starts like a JSON-line log record:
// eight hex digits of CRC, a space, then the JSON payload.
func isLegacyWAL(data []byte) bool {
	if len(data) < 10 || data[8] != ' ' || data[9] != '{' {
		return false
	}
	for _, c := range data[:8] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// ---- classes ----

func appendClass(b []byte, c *Class) []byte {
	b = binfmt.AppendStr(b, c.name)
	b = binfmt.AppendBool(b, c.spatial)
	n := 0
	for _, a := range c.attrs {
		if !(c.spatial && isPositionAttr(a.Name)) {
			n++
		}
	}
	b = binfmt.AppendUvarint(b, uint64(n))
	for _, a := range c.attrs {
		if c.spatial && isPositionAttr(a.Name) {
			continue // implicit
		}
		b = binfmt.AppendStr(b, a.Name)
		b = binfmt.AppendBool(b, a.Kind == Dynamic)
	}
	return b
}

func readClass(r *binfmt.Reader) *Class {
	name := r.Str()
	spatial := r.Bool()
	attrs := make([]AttrDef, r.VarCount(minAttrSize))
	for i := range attrs {
		attrs[i].Name = r.Str()
		if r.Bool() {
			attrs[i].Kind = Dynamic
		}
	}
	if r.Err != nil {
		return nil
	}
	c, err := NewClass(name, spatial, attrs...)
	if err != nil {
		r.Fail("%v", err)
		return nil
	}
	return c
}

// ---- objects ----

// appendObject appends o's body (everything but its id).
func appendObject(b []byte, o *Object) []byte {
	c := o.class
	b = binfmt.AppendStr(b, c.name)
	mask := len(b)
	for i := 0; i < (len(c.attrs)+7)/8; i++ {
		b = append(b, 0)
	}
	for i, a := range c.attrs {
		if a.Kind == Static {
			v, ok := o.statics[a.Name]
			if !ok {
				continue
			}
			b[mask+i/8] |= 1 << (i % 8)
			b = appendStatic(b, v)
		} else {
			d, ok := o.dynamic(a.Name)
			if !ok {
				continue
			}
			b[mask+i/8] |= 1 << (i % 8)
			b = binfmt.AppendF64(b, d.Value)
			b = binfmt.AppendVarint(b, int64(d.UpdateTime))
			b = appendFunc(b, d.Function)
		}
	}
	return b
}

// readObject decodes an object body for id, resolving its class in
// classes.
func readObject(r *binfmt.Reader, classes map[string]*Class, id ObjectID) *Object {
	name := r.StrBytes()
	if r.Err != nil {
		return nil
	}
	if id == "" {
		r.Fail("object id must not be empty")
		return nil
	}
	c, ok := classes[string(name)]
	if !ok {
		r.Fail("object %s references unknown class %s", id, name)
		return nil
	}
	mask := r.Take((len(c.attrs) + 7) / 8)
	if r.Err != nil {
		return nil
	}
	if extra := len(c.attrs) % 8; extra != 0 && mask[len(mask)-1]>>extra != 0 {
		r.Fail("object %s: presence mask names attributes past the %s schema", id, c.name)
		return nil
	}
	nStatic, nDynamic := 0, 0
	o := &Object{id: id, class: c}
	for i, a := range c.attrs {
		if mask[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		if a.Kind == Static {
			nStatic++
		} else if p, _ := o.posCoord(a.Name); p == nil {
			nDynamic++
		}
	}
	if nStatic > 0 {
		o.statics = make(map[string]Value, nStatic)
	}
	if nDynamic > 0 {
		o.dynamics = make(map[string]motion.DynamicAttr, nDynamic)
	}
	for i, a := range c.attrs {
		if mask[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		// The decoded attributes are stored without WithStatic's and
		// WithDynamic's copies, but obey the same rules.
		if a.Kind == Static {
			v := readStatic(r)
			if err := checkStatic(c, a.Name, v); r.Err == nil && err != nil {
				r.Fail("object %s: %v", id, err)
			}
			o.statics[a.Name] = v
			continue
		}
		d := motion.DynamicAttr{Value: r.F64(), UpdateTime: temporal.Tick(r.Varint()), Function: readFunc(r)}
		if r.Err != nil {
			return nil
		}
		if err := checkDynamic(c, a.Name, d); err != nil {
			r.Fail("object %s: %v", id, err)
			return nil
		}
		if p, bit := o.posCoord(a.Name); p != nil {
			*p = d
			o.posSet |= bit
		} else {
			o.dynamics[a.Name] = d
		}
	}
	if r.Err != nil {
		return nil
	}
	return o
}

// EncodeObject returns the transfer encoding of one object revision: its
// id, its class's schema digest and its object body.
func EncodeObject(o *Object) []byte {
	b := binfmt.AppendStr(nil, string(o.id))
	b = binfmt.AppendU32(b, schemaSum(o.class))
	return appendObject(b, o)
}

// DecodeObject rebuilds an object from EncodeObject output, resolving its
// class in db.  It refuses an object whose class schema differs from db's
// class of that name.
func DecodeObject(db *Database, data []byte) (*Object, error) {
	r := binfmt.Reader{Data: data}
	id := ObjectID(r.Str())
	sum := r.U32()
	classes := *db.byName.Load()
	peek := r
	if c, ok := classes[string(peek.StrBytes())]; ok && peek.Err == nil && schemaSum(c) != sum {
		return nil, fmt.Errorf("most: object %s: class %s schema differs from the sender's", id, c.name)
	}
	o := readObject(&r, classes, id)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("most: bad object encoding: %w", err)
	}
	return o, nil
}

// ObjectClass returns the class name of an EncodeObject encoding without
// decoding the object.
func ObjectClass(data []byte) (string, error) {
	r := binfmt.Reader{Data: data}
	r.StrBytes()
	r.U32()
	class := r.Str()
	if r.Err != nil {
		return "", fmt.Errorf("most: bad object encoding: %w", r.Err)
	}
	return class, nil
}

// schemaSum is the digest of c's schema that a transferred object carries.
func schemaSum(c *Class) uint32 { return crc32.ChecksumIEEE(appendClass(nil, c)) }

func appendStatic(b []byte, v Value) []byte {
	b = append(b, uint8(v.Kind))
	switch v.Kind {
	case KindFloat:
		b = binfmt.AppendF64(b, v.F)
	case KindString:
		b = binfmt.AppendStr(b, v.S)
	case KindBool:
		b = binfmt.AppendBool(b, v.B)
	}
	return b
}

func readStatic(r *binfmt.Reader) Value {
	switch k := ValueKind(r.U8()); k {
	case KindNull:
		return Null()
	case KindFloat:
		return Float(r.F64())
	case KindString:
		return Str(r.Str())
	case KindBool:
		return Bool(r.Bool())
	default:
		r.Fail("unknown value kind %d", k)
		return Value{}
	}
}

func appendFunc(b []byte, f motion.Func) []byte {
	ps := f.Pieces()
	b = binfmt.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		flags := len(b)
		b = append(b, 0)
		for i, v := range [3]float64{p.Start, p.Slope, p.Accel} {
			if math.Float64bits(v) != 0 { // -0.0 has nonzero bits: stored
				b[flags] |= 1 << i
				b = binfmt.AppendF64(b, v)
			}
		}
	}
	return b
}

func readFunc(r *binfmt.Reader) motion.Func {
	n := r.VarCount(minPieceSize)
	if n == 0 || r.Err != nil {
		return motion.Constant()
	}
	// NewFunc copies the pieces, so a short function decodes through a
	// stack buffer.
	var buf [4]motion.Piece
	ps := buf[:0]
	if n > len(buf) {
		ps = make([]motion.Piece, 0, n)
	}
	ps = ps[:n]
	for i := range ps {
		flags := r.U8()
		if flags&^(pieceStart|pieceSlope|pieceAccel) != 0 {
			r.Fail("bad piece flags %#x", flags)
			return motion.Func{}
		}
		if flags&pieceStart != 0 {
			ps[i].Start = r.F64()
		}
		if flags&pieceSlope != 0 {
			ps[i].Slope = r.F64()
		}
		if flags&pieceAccel != 0 {
			ps[i].Accel = r.F64()
		}
	}
	if r.Err != nil {
		return motion.Func{}
	}
	f, err := motion.NewFunc(ps...)
	if err != nil {
		r.Fail("%v", err)
	}
	return f
}

// ---- checkpoint ----

// appendCheckpoint appends the checkpoint image of the snapshot.  The
// image is a pure function of the state: two checkpoints of the same state
// are byte-identical.
func (s *Snapshot) appendCheckpoint(b []byte) []byte {
	start := len(b)
	b = append(b, ckptMagic...)
	b = binfmt.AppendVarint(b, int64(s.now))
	b = binfmt.AppendUvarint(b, uint64(len(s.classes)))
	for _, c := range s.classes {
		b = appendClass(b, c.class)
	}
	objects := s.Objects("")
	b = binfmt.AppendUvarint(b, uint64(len(objects)))
	for _, o := range objects {
		b = binfmt.AppendStr(b, string(o.id))
		b = appendObject(b, o)
	}
	return binfmt.Seal(b, start)
}

// loadCheckpoint rebuilds a database from a checkpoint image, inserting
// its objects at the checkpoint clock, like LoadSnapshotJSON.
func loadCheckpoint(data []byte) (*Database, error) {
	if !bytes.HasPrefix(data, ckptMagic) && isLegacyCheckpoint(data) {
		return nil, &LegacyFormatError{Format: legacyCheckpoint}
	}
	r, err := binfmt.Unseal(data, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("most: bad checkpoint: %w", err)
	}
	db := readCheckpoint(r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("most: bad checkpoint: %w", err)
	}
	return db, nil
}

// readCheckpoint decodes a checkpoint body into a new database; every
// failure, including a rejected class or object, lands in r.Err.
func readCheckpoint(r *binfmt.Reader) *Database {
	now := temporal.Tick(r.Varint())
	if r.Err == nil && now < 0 {
		r.Fail("negative clock %d", now)
	}
	if r.Err != nil {
		return nil
	}
	db := NewDatabase()
	db.Advance(now)
	for i, n := 0, r.VarCount(minClassSize); i < n && r.Err == nil; i++ {
		if c := readClass(r); c != nil {
			if err := db.DefineClass(c); err != nil {
				r.Fail("%v", err)
			}
		}
	}
	var prev ObjectID
	for i, n := 0, r.VarCount(minObjectSize); i < n && r.Err == nil; i++ {
		id := ObjectID(r.Str())
		if r.Err == nil && i > 0 && id <= prev {
			r.Fail("object %s out of id order", id)
		}
		if o := readObject(r, *db.byName.Load(), id); o != nil {
			if err := db.Insert(o); err != nil {
				r.Fail("%v", err)
			}
		}
		prev = id
	}
	return db
}

// ---- log records ----

// walRecord is one WAL entry.  Beyond the three kinds that change state
// (class, clock, update), a note is an opaque annotation that does not
// touch database state on replay (the server logs executed-request
// receipts through it), and a reset discards everything recovered so far
// and restarts replay from an empty database (written when the served
// database is wholesale replaced, so the log alone reconstructs the
// post-replacement state even over a stale snapshot).
type walRecord struct {
	kind  uint8
	seq   uint64
	prov  *Prov
	now   temporal.Tick // clock
	class *Class        // class
	upd   Update        // update: Tick, Kind, Object, Attr and After
	tag   string        // note
	data  []byte        // note
}

func appendRecord(b []byte, rec *walRecord) []byte {
	b = append(b, rec.kind)
	b = binfmt.AppendUvarint(b, rec.seq)
	if p := rec.prov; p != nil {
		b = append(b, 1)
		b = binfmt.AppendStr(b, p.Client)
		b = binfmt.AppendUvarint(b, p.Req)
		b = binfmt.AppendVarint(b, int64(p.Op))
	} else {
		b = append(b, 0)
	}
	switch rec.kind {
	case recClass:
		b = appendClass(b, rec.class)
	case recClock:
		b = binfmt.AppendVarint(b, int64(rec.now))
	case recUpdate:
		u := &rec.upd
		b = binfmt.AppendVarint(b, int64(u.Tick))
		b = append(b, uint8(u.Kind))
		b = binfmt.AppendStr(b, string(u.Object))
		b = binfmt.AppendStr(b, u.Attr)
		if u.After != nil {
			b = append(b, 1)
			b = appendObject(b, u.After)
		} else {
			b = append(b, 0)
		}
	case recNote:
		b = binfmt.AppendStr(b, rec.tag)
		b = binfmt.AppendBytes(b, rec.data)
	}
	return b
}

// decodeRecord decodes one record payload; update post-images resolve
// their class in classes.
func decodeRecord(payload []byte, classes map[string]*Class) (walRecord, error) {
	r := binfmt.Reader{Data: payload}
	rec := walRecord{kind: r.U8(), seq: r.Uvarint()}
	if r.Bool() {
		rec.prov = &Prov{Client: r.Str(), Req: r.Uvarint(), Op: int(r.Varint())}
	}
	switch rec.kind {
	case recClass:
		rec.class = readClass(&r)
	case recClock:
		rec.now = temporal.Tick(r.Varint())
	case recUpdate:
		u := &rec.upd
		u.Tick = temporal.Tick(r.Varint())
		u.Kind = UpdateKind(r.U8())
		u.Object = ObjectID(r.Str())
		u.Attr = r.Str()
		if r.Bool() {
			u.After = readObject(&r, classes, u.Object)
		}
	case recNote:
		rec.tag = r.Str()
		rec.data = bytes.Clone(r.StrBytes())
	case recReset:
	default:
		r.Fail("unknown record kind %d", rec.kind)
	}
	return rec, r.End()
}

// Frames: every record is u32 payload length · u32 IEEE CRC-32 of the
// payload · payload, all after the log's magic header.
const frameHeader = 8

// errForeignLog reports input that does not start with the log header.
var errForeignLog = errors.New("not a write-ahead log (bad header)")

// logWalk says where a walk over a log's frames ended.
type logWalk struct {
	end     int64  // byte offset just past the last accepted frame
	records int    // frames accepted
	reason  string // why the walk stopped before the end of the input; "" if it did not
}

// walkLog reads a log of size bytes from r and hands each record payload,
// in order, to apply (which may be nil; the payload buffer is reused for
// the next frame).  The walk stops at the first frame that is torn (it runs
// past size), empty (a payload holds at least its kind byte, so a zero
// length is a zero-filled tail, not a record), fails its CRC, or that
// apply rejects.  That frame and everything after it are the log's dead
// tail: replay ignores it and OpenWAL truncates it, so the two agree on
// where the log ends.  Input that is not a log is an error — a
// LegacyFormatError for a JSON-line log of earlier versions, errForeignLog
// otherwise — while a torn header is an empty log with a dead tail.
func walkLog(r io.Reader, size int64, apply func(payload []byte) error) (logWalk, error) {
	br := bufio.NewReader(r)
	var w logWalk
	if size == 0 {
		return w, nil
	}
	head, err := br.Peek(min(int(size), 10))
	if err != nil {
		return w, err
	}
	switch {
	case bytes.HasPrefix(head, walMagic):
	case len(head) < len(walMagic) && bytes.HasPrefix(walMagic, head):
		w.reason = "torn log header"
		return w, nil
	case isLegacyWAL(head):
		return w, &LegacyFormatError{Format: legacyWAL}
	default:
		return w, errForeignLog
	}
	br.Discard(len(walMagic))
	w.end = int64(len(walMagic))
	var frame [frameHeader]byte
	var payload []byte
	for w.end < size {
		if size-w.end < frameHeader {
			w.reason = "torn record"
			return w, nil
		}
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return w, err
		}
		n := int64(binary.LittleEndian.Uint32(frame[:]))
		switch {
		case n > size-w.end-frameHeader:
			w.reason = "torn record"
			return w, nil
		case n == 0:
			w.reason = "empty record"
			return w, nil
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return w, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
			w.reason = "checksum mismatch"
			return w, nil
		}
		if apply != nil {
			if err := apply(payload); err != nil {
				w.reason = err.Error()
				return w, nil
			}
		}
		w.end += frameHeader + n
		w.records++
	}
	return w, nil
}
