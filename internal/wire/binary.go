package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"github.com/mostdb/most/internal/temporal"
)

// This file is the protocol-version-2 payload codec: a compact binary
// encoding of every request, response, and push payload, replacing the
// version-1 JSON bodies on the hot path.  The grammar (specified byte by
// byte in PROTOCOL.md) uses four primitives:
//
//	u8/u32/u64  fixed-width little-endian unsigned integers
//	i64         fixed-width little-endian two's-complement (clock ticks)
//	f64         IEEE-754 binary64 bits, little-endian — coordinates and
//	            numeric values round-trip exactly, bit for bit
//	str/bytes   uvarint byte length followed by the raw bytes
//
// Encoders are append-style ([]byte in, []byte out) so callers own buffer
// reuse; decoders decode into caller-provided structs, reusing slice
// capacity and (through Interner) previously allocated strings, which is
// what makes the server's steady-state ingest path allocation-free
// (TestIngestZeroAlloc).
//
// Every payload type implements the unexported binaryPayload interface;
// EncodeFrame/Unmarshal dispatch on it, so adding a payload type means
// adding the two methods and a PROTOCOL.md grammar entry.

// binaryPayload is implemented (on pointer receivers) by every payload
// type that has a version-2 binary form.
type binaryPayload interface {
	appendBinary(buf []byte) []byte
	decodeBinary(r *binReader) error
}

// appendPayload appends p's binary form at version v.  Version 3 differs
// from version 2 only in NOTIFY, which gains a form byte (and the delta
// form); every other payload encodes identically.
func appendPayload(b []byte, p binaryPayload, v uint8) []byte {
	if n, ok := p.(*Notify); ok && v >= ProtocolV3 {
		return n.appendBinaryV3(b)
	}
	return p.appendBinary(b)
}

// Interner resolves recurring byte strings (object IDs, attribute names)
// to previously allocated string instances so a steady-state decode stream
// stops allocating.  The zero/nil Interner disables interning; a session
// typically owns one Interner for its lifetime.
type Interner map[string]string

// maxInternEntries caps an Interner so a hostile client cycling through
// unique IDs cannot grow a session's memory without bound; past the cap,
// lookups still hit but misses allocate without being retained.
const maxInternEntries = 1 << 16

// Intern returns a string equal to b, reusing a prior allocation when one
// exists.  The compiler elides the []byte→string conversion in the map
// lookup, so steady-state hits are allocation-free.
func (in Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInternEntries {
		in[s] = s
	}
	return s
}

// ---- primitives ----

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendTick(b []byte, t temporal.Tick) []byte { return appendI64(b, int64(t)) }
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// binReader decodes the v2 grammar with a sticky error: after the first
// violation every subsequent read returns zero values, and decodeBinary
// surfaces the recorded error.  All bounds are checked against the
// remaining payload before any slice or string is materialized.
type binReader struct {
	data    []byte
	off     int
	in      Interner
	err     error
	version uint8 // frame version: selects the v3 NOTIFY grammar
}

// binReaderPool recycles binReaders across UnmarshalInterned calls (the
// pointer would otherwise escape to the heap through the binaryPayload
// interface on every decode).
var binReaderPool = sync.Pool{New: func() any { return new(binReader) }}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("truncated: need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) i64() int64          { return int64(r.u64()) }
func (r *binReader) f64() float64        { return math.Float64frombits(r.u64()) }
func (r *binReader) tick() temporal.Tick { return temporal.Tick(r.i64()) }
func (r *binReader) boolean() bool       { return r.u8() != 0 }
func (r *binReader) strBytes() []byte {
	if r.err != nil {
		return nil
	}
	n, w := binary.Uvarint(r.data[r.off:])
	if w <= 0 {
		r.fail("bad varint length")
		return nil
	}
	r.off += w
	if n > uint64(r.remaining()) {
		r.fail("truncated string: declared %d bytes, have %d", n, r.remaining())
		return nil
	}
	return r.take(int(n))
}

// str decodes a varint-prefixed string, allocating.
func (r *binReader) str() string { return string(r.strBytes()) }

// internedStr decodes a varint-prefixed string through the interner, so
// recurring values (object IDs) are allocation-free in steady state.
func (r *binReader) internedStr() string {
	b := r.strBytes()
	if r.err != nil {
		return ""
	}
	return r.in.Intern(b)
}

// count reads a u32 element count and sanity-checks it against the bytes
// remaining (each element needs at least minElem bytes), so a hostile
// count cannot force a huge allocation from a short payload.
func (r *binReader) count(minElem int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if minElem > 0 && int64(n)*int64(minElem) > int64(r.remaining()) {
		r.fail("count %d exceeds remaining payload (%d bytes)", n, r.remaining())
		return 0
	}
	return int(n)
}

// ---- values and answer rows ----

// Minimum encoded sizes, used to bound hostile element counts.
const (
	minValueSize      = 12 // kind + 2 empty strings + f64 + bool
	minAnswerRowSize  = 4 + 16
	minObjectInfoSize = 1 + 1 + 1 + 8 + 8
	minUpdateOpSize   = 1 + 1
	minRowSize        = 4
)

func (v *Value) appendBinary(b []byte) []byte {
	b = appendU8(b, v.Kind)
	b = appendStr(b, v.Obj)
	b = appendF64(b, v.Num)
	b = appendStr(b, v.Str)
	return appendBool(b, v.Bool)
}

func (v *Value) decodeBinary(r *binReader) error {
	v.Kind = r.u8()
	v.Obj = r.internedStr()
	v.Num = r.f64()
	v.Str = r.str()
	v.Bool = r.boolean()
	return r.err
}

func appendValues(b []byte, vals []Value) []byte {
	b = appendU32(b, uint32(len(vals)))
	for i := range vals {
		b = vals[i].appendBinary(b)
	}
	return b
}

func decodeValues(r *binReader, dst []Value) []Value {
	n := r.count(minValueSize)
	if cap(dst) < n {
		dst = make([]Value, n)
	}
	dst = dst[:n]
	for i := range dst {
		if err := dst[i].decodeBinary(r); err != nil {
			return nil
		}
	}
	return dst
}

func (a *AnswerRow) appendBinary(b []byte) []byte {
	b = appendValues(b, a.Vals)
	b = appendTick(b, a.Start)
	return appendTick(b, a.End)
}

func (a *AnswerRow) decodeBinary(r *binReader) error {
	a.Vals = decodeValues(r, a.Vals)
	a.Start = r.tick()
	a.End = r.tick()
	return r.err
}

func appendAnswerRows(b []byte, rows []AnswerRow) []byte {
	b = appendU32(b, uint32(len(rows)))
	for i := range rows {
		b = rows[i].appendBinary(b)
	}
	return b
}

func decodeAnswerRows(r *binReader, dst []AnswerRow) []AnswerRow {
	n := r.count(minAnswerRowSize)
	if cap(dst) < n {
		dst = make([]AnswerRow, n)
	}
	dst = dst[:n]
	for i := range dst {
		if err := dst[i].decodeBinary(r); err != nil {
			return nil
		}
	}
	return dst
}

// ---- request payloads ----

func (q *QueryReq) appendBinary(b []byte) []byte {
	b = appendStr(b, q.Src)
	b = appendTick(b, q.Horizon)
	return appendI64(b, q.DeadlineMS)
}

func (q *QueryReq) decodeBinary(r *binReader) error {
	q.Src = r.str()
	q.Horizon = r.tick()
	q.DeadlineMS = r.i64()
	return r.err
}

// Binary update-op kind codes (v2 form of the UpdateOp.Op strings).
const (
	binOpSetMotion uint8 = 1
	binOpSetStatic uint8 = 2
	binOpInsert    uint8 = 3
	binOpDelete    uint8 = 4
)

func (op *UpdateOp) appendBinary(b []byte) []byte {
	switch op.Op {
	case OpSetMotion:
		b = appendU8(b, binOpSetMotion)
		b = appendStr(b, op.ID)
		b = appendF64(b, op.VX)
		return appendF64(b, op.VY)
	case OpSetStatic:
		b = appendU8(b, binOpSetStatic)
		b = appendStr(b, op.ID)
		b = appendStr(b, op.Attr)
		if op.Value == nil {
			return appendU8(b, 0)
		}
		b = appendU8(b, 1)
		return op.Value.appendBinary(b)
	case OpInsert:
		b = appendU8(b, binOpInsert)
		b = appendStr(b, op.ID)
		return appendBytes(b, op.Object)
	case OpDelete:
		b = appendU8(b, binOpDelete)
		return appendStr(b, op.ID)
	default:
		// Unknown ops cannot be expressed in v2; encode a kind byte the
		// decoder rejects so the failure is loud, not silent.
		b = appendU8(b, 0)
		return appendStr(b, op.ID)
	}
}

func (op *UpdateOp) decodeBinary(r *binReader) error {
	kind := r.u8()
	id := r.internedStr()
	// Reset fields not carried by this kind so decode-into-reused-struct
	// never leaks a previous op's values.
	*op = UpdateOp{ID: id}
	switch kind {
	case binOpSetMotion:
		op.Op = OpSetMotion
		op.VX = r.f64()
		op.VY = r.f64()
	case binOpSetStatic:
		op.Op = OpSetStatic
		op.Attr = r.internedStr()
		if r.boolean() {
			var v Value
			if err := v.decodeBinary(r); err != nil {
				return err
			}
			op.Value = &v
		}
	case binOpInsert:
		op.Op = OpInsert
		op.Object = json.RawMessage(r.strBytes())
	case binOpDelete:
		op.Op = OpDelete
	default:
		r.fail("unknown update op kind %d", kind)
	}
	return r.err
}

func (u *UpdateBatchReq) appendBinary(b []byte) []byte {
	b = appendI64(b, u.DeadlineMS)
	b = appendU32(b, uint32(len(u.Ops)))
	for i := range u.Ops {
		b = u.Ops[i].appendBinary(b)
	}
	return b
}

func (u *UpdateBatchReq) decodeBinary(r *binReader) error {
	u.DeadlineMS = r.i64()
	n := r.count(minUpdateOpSize)
	if cap(u.Ops) < n {
		u.Ops = make([]UpdateOp, n)
	}
	u.Ops = u.Ops[:n]
	for i := range u.Ops {
		if err := u.Ops[i].decodeBinary(r); err != nil {
			return err
		}
	}
	return r.err
}

func (a *AdvanceReq) appendBinary(b []byte) []byte { return appendTick(b, a.D) }
func (a *AdvanceReq) decodeBinary(r *binReader) error {
	a.D = r.tick()
	return r.err
}

func (o *ObjectsReq) appendBinary(b []byte) []byte { return appendStr(b, o.Class) }
func (o *ObjectsReq) decodeBinary(r *binReader) error {
	o.Class = r.str()
	return r.err
}

func (s *SnapshotLoadReq) appendBinary(b []byte) []byte { return appendBytes(b, s.Data) }
func (s *SnapshotLoadReq) decodeBinary(r *binReader) error {
	s.Data = json.RawMessage(r.strBytes())
	return r.err
}

func (s *SubscribeReq) appendBinary(b []byte) []byte {
	b = appendStr(b, s.Src)
	return appendTick(b, s.Horizon)
}

func (s *SubscribeReq) decodeBinary(r *binReader) error {
	s.Src = r.str()
	s.Horizon = r.tick()
	return r.err
}

func (u *UnsubscribeReq) appendBinary(b []byte) []byte { return appendU64(b, u.SubID) }
func (u *UnsubscribeReq) decodeBinary(r *binReader) error {
	u.SubID = r.u64()
	return r.err
}

// ---- response and push payloads ----

func (q *QueryResp) appendBinary(b []byte) []byte {
	b = appendTick(b, q.Now)
	return appendRows(b, q.Rows)
}

func (q *QueryResp) decodeBinary(r *binReader) error {
	q.Now = r.tick()
	q.Rows = decodeRows(r, q.Rows)
	return r.err
}

// appendRows encodes Row[] (Row := Value[]).
func appendRows(b []byte, rows [][]Value) []byte {
	b = appendU32(b, uint32(len(rows)))
	for i := range rows {
		b = appendValues(b, rows[i])
	}
	return b
}

// decodeRows decodes Row[], bounding the count by the payload remaining.
func decodeRows(r *binReader, dst [][]Value) [][]Value {
	n := r.count(minRowSize)
	if cap(dst) < n {
		dst = make([][]Value, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = decodeValues(r, dst[i])
		if r.err != nil {
			return nil
		}
	}
	return dst
}

func (u *UpdateBatchResp) appendBinary(b []byte) []byte {
	b = appendU32(b, uint32(u.Applied))
	b = appendTick(b, u.Now)
	return appendU64(b, u.Version)
}

func (u *UpdateBatchResp) decodeBinary(r *binReader) error {
	u.Applied = int(r.u32())
	u.Now = r.tick()
	u.Version = r.u64()
	return r.err
}

func (a *AdvanceResp) appendBinary(b []byte) []byte { return appendTick(b, a.Now) }
func (a *AdvanceResp) decodeBinary(r *binReader) error {
	a.Now = r.tick()
	return r.err
}

func (o *ObjectInfo) appendBinary(b []byte) []byte {
	b = appendStr(b, o.ID)
	b = appendStr(b, o.Class)
	b = appendBool(b, o.HasPos)
	b = appendF64(b, o.X)
	return appendF64(b, o.Y)
}

func (o *ObjectInfo) decodeBinary(r *binReader) error {
	o.ID = r.internedStr()
	o.Class = r.internedStr()
	o.HasPos = r.boolean()
	o.X = r.f64()
	o.Y = r.f64()
	return r.err
}

func (o *ObjectsResp) appendBinary(b []byte) []byte {
	b = appendTick(b, o.Now)
	b = appendU32(b, uint32(len(o.Objects)))
	for i := range o.Objects {
		b = o.Objects[i].appendBinary(b)
	}
	return b
}

func (o *ObjectsResp) decodeBinary(r *binReader) error {
	o.Now = r.tick()
	n := r.count(minObjectInfoSize)
	if cap(o.Objects) < n {
		o.Objects = make([]ObjectInfo, n)
	}
	o.Objects = o.Objects[:n]
	for i := range o.Objects {
		if err := o.Objects[i].decodeBinary(r); err != nil {
			return err
		}
	}
	return r.err
}

func (s *SnapshotResp) appendBinary(b []byte) []byte { return appendBytes(b, s.Data) }
func (s *SnapshotResp) decodeBinary(r *binReader) error {
	s.Data = json.RawMessage(r.strBytes())
	return r.err
}

func (s *SnapshotLoadResp) appendBinary(b []byte) []byte {
	b = appendTick(b, s.Now)
	return appendU32(b, uint32(s.Objects))
}

func (s *SnapshotLoadResp) decodeBinary(r *binReader) error {
	s.Now = r.tick()
	s.Objects = int(r.u32())
	return r.err
}

func (s *SubscribeResp) appendBinary(b []byte) []byte {
	b = appendU64(b, s.SubID)
	b = appendTick(b, s.Now)
	return appendAnswerRows(b, s.Answer)
}

func (s *SubscribeResp) decodeBinary(r *binReader) error {
	s.SubID = r.u64()
	s.Now = r.tick()
	s.Answer = decodeAnswerRows(r, s.Answer)
	return r.err
}

func (n *Notify) appendBinary(b []byte) []byte {
	b = appendU64(b, n.SubID)
	b = appendU64(b, n.Seq)
	return appendAnswerRows(b, n.Answer)
}

func (n *Notify) decodeBinary(r *binReader) error {
	n.SubID = r.u64()
	n.Seq = r.u64()
	n.Delta, n.Base, n.Gone = false, 0, nil
	if r.version >= ProtocolV3 {
		switch form := r.u8(); form {
		case notifyFull:
		case notifyDelta:
			n.Delta = true
			n.Base = r.u64()
			n.Gone = decodeRows(r, nil)
		default:
			r.fail("unknown notify form %d", form)
		}
	}
	n.Answer = decodeAnswerRows(r, n.Answer)
	return r.err
}

// NOTIFY form bytes (version 3).
const (
	notifyFull  = 0
	notifyDelta = 1
)

// appendBinaryV3 is the version-3 NOTIFY: the v2 fields with a form byte
// after seq, and in the delta form the base sequence number and the
// departed instantiations before the replacement rows.
func (n *Notify) appendBinaryV3(b []byte) []byte {
	b = appendU64(b, n.SubID)
	b = appendU64(b, n.Seq)
	if !n.Delta {
		b = appendU8(b, notifyFull)
		return appendAnswerRows(b, n.Answer)
	}
	b = appendU8(b, notifyDelta)
	b = appendU64(b, n.Base)
	b = appendRows(b, n.Gone)
	return appendAnswerRows(b, n.Answer)
}

func (s *SubClosed) appendBinary(b []byte) []byte {
	b = appendU64(b, s.SubID)
	return appendStr(b, s.Reason)
}

func (s *SubClosed) decodeBinary(r *binReader) error {
	s.SubID = r.u64()
	s.Reason = r.str()
	return r.err
}

func (e *ErrorResp) appendBinary(b []byte) []byte {
	b = appendStr(b, e.Msg)
	b = appendStr(b, e.Code)
	b = appendStr(b, e.Addr)
	// The redirects block is optional-trailing: omitted entirely (not even
	// a zero count) on the overwhelmingly common redirect-free error, so
	// pre-cluster frames and new redirect-free frames are byte-identical.
	if len(e.Redirects) > 0 {
		b = appendU32(b, uint32(len(e.Redirects)))
		for _, a := range e.Redirects {
			b = appendStr(b, a)
		}
	}
	return b
}

func (e *ErrorResp) decodeBinary(r *binReader) error {
	e.Msg = r.str()
	e.Code = r.str()
	e.Addr = r.str()
	e.Redirects = nil
	if r.err == nil && r.remaining() > 0 {
		n := r.count(1) // each element is at least a 1-byte string header
		if n > 0 {
			e.Redirects = make([]string, n)
			for i := range e.Redirects {
				e.Redirects[i] = r.str()
			}
		}
	}
	return r.err
}

// ---- cluster payloads ----

// Minimum encoded zone size: u32 id + 4 f64 bounds + empty addr string.
const minZoneSize = 4 + 4*8 + 1

const minHandoffObjectSize = 1 + 8 + 1 // id, version, object

func (z *Zone) appendBinary(b []byte) []byte {
	b = appendU32(b, uint32(z.ID))
	b = appendF64(b, z.MinX)
	b = appendF64(b, z.MinY)
	b = appendF64(b, z.MaxX)
	b = appendF64(b, z.MaxY)
	return appendStr(b, z.Addr)
}

func (z *Zone) decodeBinary(r *binReader) error {
	z.ID = int(r.u32())
	z.MinX = r.f64()
	z.MinY = r.f64()
	z.MaxX = r.f64()
	z.MaxY = r.f64()
	z.Addr = r.internedStr()
	return r.err
}

func (m *ZoneMapResp) appendBinary(b []byte) []byte {
	b = appendU64(b, m.Epoch)
	b = appendU32(b, uint32(len(m.Zones)))
	for i := range m.Zones {
		b = m.Zones[i].appendBinary(b)
	}
	b = appendU32(b, uint32(len(m.Replicated)))
	for _, c := range m.Replicated {
		b = appendStr(b, c)
	}
	return b
}

func (m *ZoneMapResp) decodeBinary(r *binReader) error {
	m.Epoch = r.u64()
	n := r.count(minZoneSize)
	if cap(m.Zones) < n {
		m.Zones = make([]Zone, n)
	}
	m.Zones = m.Zones[:n]
	for i := range m.Zones {
		if err := m.Zones[i].decodeBinary(r); err != nil {
			return err
		}
	}
	k := r.count(1)
	if cap(m.Replicated) < k {
		m.Replicated = make([]string, k)
	}
	m.Replicated = m.Replicated[:k]
	for i := range m.Replicated {
		m.Replicated[i] = r.internedStr()
	}
	return r.err
}

func (h *HandoffReq) appendBinary(b []byte) []byte {
	b = appendStr(b, h.From)
	b = appendU32(b, uint32(len(h.Objects)))
	for i := range h.Objects {
		o := &h.Objects[i]
		b = appendStr(b, o.ID)
		b = appendU64(b, o.Version)
		b = appendBytes(b, o.Object)
	}
	return b
}

func (h *HandoffReq) decodeBinary(r *binReader) error {
	h.From = r.internedStr()
	n := r.count(minHandoffObjectSize)
	if cap(h.Objects) < n {
		h.Objects = make([]HandoffObject, n)
	}
	h.Objects = h.Objects[:n]
	for i := range h.Objects {
		o := &h.Objects[i]
		o.ID = r.internedStr()
		o.Version = r.u64()
		o.Object = json.RawMessage(r.strBytes())
	}
	return r.err
}

func (h *HandoffResp) appendBinary(b []byte) []byte {
	b = appendU32(b, uint32(len(h.Accepted)))
	for _, a := range h.Accepted {
		b = appendBool(b, a)
	}
	return appendTick(b, h.Now)
}

func (h *HandoffResp) decodeBinary(r *binReader) error {
	n := r.count(1)
	if cap(h.Accepted) < n {
		h.Accepted = make([]bool, n)
	}
	h.Accepted = h.Accepted[:n]
	for i := range h.Accepted {
		h.Accepted[i] = r.boolean()
	}
	h.Now = r.tick()
	return r.err
}

func (f *ForwardReq) appendBinary(b []byte) []byte {
	b = appendStr(b, f.Origin)
	b = appendU64(b, f.ReqID)
	b = appendU32(b, uint32(len(f.Ops)))
	for i := range f.Ops {
		b = f.Ops[i].appendBinary(b)
	}
	return b
}

func (f *ForwardReq) decodeBinary(r *binReader) error {
	f.Origin = r.internedStr()
	f.ReqID = r.u64()
	n := r.count(minUpdateOpSize)
	if cap(f.Ops) < n {
		f.Ops = make([]UpdateOp, n)
	}
	f.Ops = f.Ops[:n]
	for i := range f.Ops {
		if err := f.Ops[i].decodeBinary(r); err != nil {
			return err
		}
	}
	return r.err
}
