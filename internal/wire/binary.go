package wire

import (
	"sync"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/temporal"
)

// This file is the payload codec: a compact binary encoding of every
// request, response, and push payload.  The grammar (specified byte by
// byte in PROTOCOL.md) uses four of the internal/binfmt primitives:
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
// type.
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
//
// The primitives themselves live in internal/binfmt, shared with the
// on-disk formats; the wire adds clock ticks and string interning.

func appendTick(b []byte, t temporal.Tick) []byte { return binfmt.AppendI64(b, int64(t)) }

// binReader is the shared binfmt.Reader plus the decode state the wire
// grammar needs: the session's interner and the frame version (which
// selects the v3 NOTIFY grammar).
type binReader struct {
	binfmt.Reader
	in      Interner
	version uint8
}

// binReaderPool recycles binReaders across UnmarshalInterned calls (the
// pointer would otherwise escape to the heap through the binaryPayload
// interface on every decode).
var binReaderPool = sync.Pool{New: func() any { return new(binReader) }}

func (r *binReader) tick() temporal.Tick { return temporal.Tick(r.I64()) }

// internedStr decodes a varint-prefixed string through the interner, so
// recurring values (object IDs) are allocation-free in steady state.
func (r *binReader) internedStr() string {
	b := r.StrBytes()
	if r.Err != nil {
		return ""
	}
	return r.in.Intern(b)
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
	b = binfmt.AppendU8(b, v.Kind)
	b = binfmt.AppendStr(b, v.Obj)
	b = binfmt.AppendF64(b, v.Num)
	b = binfmt.AppendStr(b, v.Str)
	return binfmt.AppendBool(b, v.Bool)
}

func (v *Value) decodeBinary(r *binReader) error {
	v.Kind = r.U8()
	v.Obj = r.internedStr()
	v.Num = r.F64()
	v.Str = r.Str()
	v.Bool = r.Bool()
	return r.Err
}

func appendValues(b []byte, vals []Value) []byte {
	b = binfmt.AppendU32(b, uint32(len(vals)))
	for i := range vals {
		b = vals[i].appendBinary(b)
	}
	return b
}

func decodeValues(r *binReader, dst []Value) []Value {
	n := r.Count(minValueSize)
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
	return r.Err
}

func appendAnswerRows(b []byte, rows []AnswerRow) []byte {
	b = binfmt.AppendU32(b, uint32(len(rows)))
	for i := range rows {
		b = rows[i].appendBinary(b)
	}
	return b
}

func decodeAnswerRows(r *binReader, dst []AnswerRow) []AnswerRow {
	n := r.Count(minAnswerRowSize)
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

func (h *HelloReq) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, h.ClientID)
	b = binfmt.AppendU32(b, uint32(h.MaxVersion))
	b = binfmt.AppendU64(b, h.Epoch)
	return binfmt.AppendBool(b, h.Peer)
}

func (h *HelloReq) decodeBinary(r *binReader) error {
	h.ClientID = r.Str()
	h.MaxVersion = int(r.U32())
	h.Epoch = r.U64()
	h.Peer = r.Bool()
	return r.Err
}

func (q *QueryReq) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, q.Src)
	b = appendTick(b, q.Horizon)
	return binfmt.AppendI64(b, q.DeadlineMS)
}

func (q *QueryReq) decodeBinary(r *binReader) error {
	q.Src = r.Str()
	q.Horizon = r.tick()
	q.DeadlineMS = r.I64()
	return r.Err
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
		b = binfmt.AppendU8(b, binOpSetMotion)
		b = binfmt.AppendStr(b, op.ID)
		b = binfmt.AppendF64(b, op.VX)
		return binfmt.AppendF64(b, op.VY)
	case OpSetStatic:
		b = binfmt.AppendU8(b, binOpSetStatic)
		b = binfmt.AppendStr(b, op.ID)
		b = binfmt.AppendStr(b, op.Attr)
		if op.Value == nil {
			return binfmt.AppendU8(b, 0)
		}
		b = binfmt.AppendU8(b, 1)
		return op.Value.appendBinary(b)
	case OpInsert:
		b = binfmt.AppendU8(b, binOpInsert)
		b = binfmt.AppendStr(b, op.ID)
		return binfmt.AppendBytes(b, op.Object)
	case OpDelete:
		b = binfmt.AppendU8(b, binOpDelete)
		return binfmt.AppendStr(b, op.ID)
	default:
		// Unknown ops cannot be expressed in v2; encode a kind byte the
		// decoder rejects so the failure is loud, not silent.
		b = binfmt.AppendU8(b, 0)
		return binfmt.AppendStr(b, op.ID)
	}
}

func (op *UpdateOp) decodeBinary(r *binReader) error {
	kind := r.U8()
	id := r.internedStr()
	// Reset fields not carried by this kind so decode-into-reused-struct
	// never leaks a previous op's values.
	*op = UpdateOp{ID: id}
	switch kind {
	case binOpSetMotion:
		op.Op = OpSetMotion
		op.VX = r.F64()
		op.VY = r.F64()
	case binOpSetStatic:
		op.Op = OpSetStatic
		op.Attr = r.internedStr()
		if r.Bool() {
			var v Value
			if err := v.decodeBinary(r); err != nil {
				return err
			}
			op.Value = &v
		}
	case binOpInsert:
		op.Op = OpInsert
		op.Object = r.StrBytes()
	case binOpDelete:
		op.Op = OpDelete
	default:
		r.Fail("unknown update op kind %d", kind)
	}
	return r.Err
}

func (u *UpdateBatchReq) appendBinary(b []byte) []byte {
	b = binfmt.AppendI64(b, u.DeadlineMS)
	b = binfmt.AppendU32(b, uint32(len(u.Ops)))
	for i := range u.Ops {
		b = u.Ops[i].appendBinary(b)
	}
	return b
}

func (u *UpdateBatchReq) decodeBinary(r *binReader) error {
	u.DeadlineMS = r.I64()
	n := r.Count(minUpdateOpSize)
	if cap(u.Ops) < n {
		u.Ops = make([]UpdateOp, n)
	}
	u.Ops = u.Ops[:n]
	for i := range u.Ops {
		if err := u.Ops[i].decodeBinary(r); err != nil {
			return err
		}
	}
	return r.Err
}

func (a *AdvanceReq) appendBinary(b []byte) []byte { return appendTick(b, a.D) }
func (a *AdvanceReq) decodeBinary(r *binReader) error {
	a.D = r.tick()
	return r.Err
}

func (o *ObjectsReq) appendBinary(b []byte) []byte { return binfmt.AppendStr(b, o.Class) }
func (o *ObjectsReq) decodeBinary(r *binReader) error {
	o.Class = r.Str()
	return r.Err
}

func (s *SnapshotLoadReq) appendBinary(b []byte) []byte { return binfmt.AppendBytes(b, s.Data) }
func (s *SnapshotLoadReq) decodeBinary(r *binReader) error {
	s.Data = r.StrBytes()
	return r.Err
}

func (s *SubscribeReq) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, s.Src)
	return appendTick(b, s.Horizon)
}

func (s *SubscribeReq) decodeBinary(r *binReader) error {
	s.Src = r.Str()
	s.Horizon = r.tick()
	return r.Err
}

func (u *UnsubscribeReq) appendBinary(b []byte) []byte { return binfmt.AppendU64(b, u.SubID) }
func (u *UnsubscribeReq) decodeBinary(r *binReader) error {
	u.SubID = r.U64()
	return r.Err
}

// ---- response and push payloads ----

func (h *HelloResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, h.Server)
	b = binfmt.AppendU32(b, uint32(h.Version))
	return binfmt.AppendBool(b, h.Resumed)
}

func (h *HelloResp) decodeBinary(r *binReader) error {
	h.Server = r.Str()
	h.Version = int(r.U32())
	h.Resumed = r.Bool()
	return r.Err
}

func (q *QueryResp) appendBinary(b []byte) []byte {
	b = appendTick(b, q.Now)
	return appendRows(b, q.Rows)
}

func (q *QueryResp) decodeBinary(r *binReader) error {
	q.Now = r.tick()
	q.Rows = decodeRows(r, q.Rows)
	return r.Err
}

// appendRows encodes Row[] (Row := Value[]).
func appendRows(b []byte, rows [][]Value) []byte {
	b = binfmt.AppendU32(b, uint32(len(rows)))
	for i := range rows {
		b = appendValues(b, rows[i])
	}
	return b
}

// decodeRows decodes Row[], bounding the count by the payload remaining.
func decodeRows(r *binReader, dst [][]Value) [][]Value {
	n := r.Count(minRowSize)
	if cap(dst) < n {
		dst = make([][]Value, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = decodeValues(r, dst[i])
		if r.Err != nil {
			return nil
		}
	}
	return dst
}

func (u *UpdateBatchResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendU32(b, uint32(u.Applied))
	b = appendTick(b, u.Now)
	return binfmt.AppendU64(b, u.Version)
}

func (u *UpdateBatchResp) decodeBinary(r *binReader) error {
	u.Applied = int(r.U32())
	u.Now = r.tick()
	u.Version = r.U64()
	return r.Err
}

func (a *AdvanceResp) appendBinary(b []byte) []byte { return appendTick(b, a.Now) }
func (a *AdvanceResp) decodeBinary(r *binReader) error {
	a.Now = r.tick()
	return r.Err
}

func (o *ObjectInfo) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, o.ID)
	b = binfmt.AppendStr(b, o.Class)
	b = binfmt.AppendBool(b, o.HasPos)
	b = binfmt.AppendF64(b, o.X)
	return binfmt.AppendF64(b, o.Y)
}

func (o *ObjectInfo) decodeBinary(r *binReader) error {
	o.ID = r.internedStr()
	o.Class = r.internedStr()
	o.HasPos = r.Bool()
	o.X = r.F64()
	o.Y = r.F64()
	return r.Err
}

func (o *ObjectsResp) appendBinary(b []byte) []byte {
	b = appendTick(b, o.Now)
	b = binfmt.AppendU32(b, uint32(len(o.Objects)))
	for i := range o.Objects {
		b = o.Objects[i].appendBinary(b)
	}
	return b
}

func (o *ObjectsResp) decodeBinary(r *binReader) error {
	o.Now = r.tick()
	n := r.Count(minObjectInfoSize)
	if cap(o.Objects) < n {
		o.Objects = make([]ObjectInfo, n)
	}
	o.Objects = o.Objects[:n]
	for i := range o.Objects {
		if err := o.Objects[i].decodeBinary(r); err != nil {
			return err
		}
	}
	return r.Err
}

func (s *SnapshotResp) appendBinary(b []byte) []byte { return binfmt.AppendBytes(b, s.Data) }
func (s *SnapshotResp) decodeBinary(r *binReader) error {
	s.Data = r.StrBytes()
	return r.Err
}

func (s *SnapshotLoadResp) appendBinary(b []byte) []byte {
	b = appendTick(b, s.Now)
	return binfmt.AppendU32(b, uint32(s.Objects))
}

func (s *SnapshotLoadResp) decodeBinary(r *binReader) error {
	s.Now = r.tick()
	s.Objects = int(r.U32())
	return r.Err
}

func (s *SubscribeResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendU64(b, s.SubID)
	b = appendTick(b, s.Now)
	return appendAnswerRows(b, s.Answer)
}

func (s *SubscribeResp) decodeBinary(r *binReader) error {
	s.SubID = r.U64()
	s.Now = r.tick()
	s.Answer = decodeAnswerRows(r, s.Answer)
	return r.Err
}

func (n *Notify) appendBinary(b []byte) []byte {
	b = binfmt.AppendU64(b, n.SubID)
	b = binfmt.AppendU64(b, n.Seq)
	return appendAnswerRows(b, n.Answer)
}

func (n *Notify) decodeBinary(r *binReader) error {
	n.SubID = r.U64()
	n.Seq = r.U64()
	n.Delta, n.Base, n.Gone = false, 0, nil
	if r.version >= ProtocolV3 {
		switch form := r.U8(); form {
		case notifyFull:
		case notifyDelta:
			n.Delta = true
			n.Base = r.U64()
			n.Gone = decodeRows(r, nil)
		default:
			r.Fail("unknown notify form %d", form)
		}
	}
	n.Answer = decodeAnswerRows(r, n.Answer)
	return r.Err
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
	b = binfmt.AppendU64(b, n.SubID)
	b = binfmt.AppendU64(b, n.Seq)
	if !n.Delta {
		b = binfmt.AppendU8(b, notifyFull)
		return appendAnswerRows(b, n.Answer)
	}
	b = binfmt.AppendU8(b, notifyDelta)
	b = binfmt.AppendU64(b, n.Base)
	b = appendRows(b, n.Gone)
	return appendAnswerRows(b, n.Answer)
}

func (s *SubClosed) appendBinary(b []byte) []byte {
	b = binfmt.AppendU64(b, s.SubID)
	return binfmt.AppendStr(b, s.Reason)
}

func (s *SubClosed) decodeBinary(r *binReader) error {
	s.SubID = r.U64()
	s.Reason = r.Str()
	return r.Err
}

func (e *ErrorResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, e.Msg)
	b = binfmt.AppendStr(b, e.Code)
	b = binfmt.AppendStr(b, e.Addr)
	// The redirects block is optional-trailing: omitted entirely (not even
	// a zero count) on the overwhelmingly common redirect-free error, so
	// pre-cluster frames and new redirect-free frames are byte-identical.
	if len(e.Redirects) > 0 {
		b = binfmt.AppendU32(b, uint32(len(e.Redirects)))
		for _, a := range e.Redirects {
			b = binfmt.AppendStr(b, a)
		}
	}
	return b
}

func (e *ErrorResp) decodeBinary(r *binReader) error {
	e.Msg = r.Str()
	e.Code = r.Str()
	e.Addr = r.Str()
	e.Redirects = nil
	if r.Err == nil && r.Remaining() > 0 {
		n := r.Count(1) // each element is at least a 1-byte string header
		if n > 0 {
			e.Redirects = make([]string, n)
			for i := range e.Redirects {
				e.Redirects[i] = r.Str()
			}
		}
	}
	return r.Err
}

// ---- cluster payloads ----

// Minimum encoded zone size: u32 id + 4 f64 bounds + empty addr string.
const minZoneSize = 4 + 4*8 + 1

const minHandoffObjectSize = 1 + 8 + 1 // id, version, object

func (z *Zone) appendBinary(b []byte) []byte {
	b = binfmt.AppendU32(b, uint32(z.ID))
	b = binfmt.AppendF64(b, z.MinX)
	b = binfmt.AppendF64(b, z.MinY)
	b = binfmt.AppendF64(b, z.MaxX)
	b = binfmt.AppendF64(b, z.MaxY)
	return binfmt.AppendStr(b, z.Addr)
}

func (z *Zone) decodeBinary(r *binReader) error {
	z.ID = int(r.U32())
	z.MinX = r.F64()
	z.MinY = r.F64()
	z.MaxX = r.F64()
	z.MaxY = r.F64()
	z.Addr = r.internedStr()
	return r.Err
}

func (m *ZoneMapResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendU64(b, m.Epoch)
	b = binfmt.AppendU32(b, uint32(len(m.Zones)))
	for i := range m.Zones {
		b = m.Zones[i].appendBinary(b)
	}
	b = binfmt.AppendU32(b, uint32(len(m.Replicated)))
	for _, c := range m.Replicated {
		b = binfmt.AppendStr(b, c)
	}
	return b
}

func (m *ZoneMapResp) decodeBinary(r *binReader) error {
	m.Epoch = r.U64()
	n := r.Count(minZoneSize)
	if cap(m.Zones) < n {
		m.Zones = make([]Zone, n)
	}
	m.Zones = m.Zones[:n]
	for i := range m.Zones {
		if err := m.Zones[i].decodeBinary(r); err != nil {
			return err
		}
	}
	k := r.Count(1)
	if cap(m.Replicated) < k {
		m.Replicated = make([]string, k)
	}
	m.Replicated = m.Replicated[:k]
	for i := range m.Replicated {
		m.Replicated[i] = r.internedStr()
	}
	return r.Err
}

func (h *HandoffReq) appendBinary(b []byte) []byte {
	b = binfmt.AppendStr(b, h.From)
	b = binfmt.AppendU32(b, uint32(len(h.Objects)))
	for i := range h.Objects {
		o := &h.Objects[i]
		b = binfmt.AppendStr(b, o.ID)
		b = binfmt.AppendU64(b, o.Version)
		b = binfmt.AppendBytes(b, o.Object)
	}
	return b
}

func (h *HandoffReq) decodeBinary(r *binReader) error {
	h.From = r.internedStr()
	n := r.Count(minHandoffObjectSize)
	if cap(h.Objects) < n {
		h.Objects = make([]HandoffObject, n)
	}
	h.Objects = h.Objects[:n]
	for i := range h.Objects {
		o := &h.Objects[i]
		o.ID = r.internedStr()
		o.Version = r.U64()
		o.Object = r.StrBytes()
	}
	return r.Err
}

func (h *HandoffResp) appendBinary(b []byte) []byte {
	b = binfmt.AppendU32(b, uint32(len(h.Accepted)))
	for _, a := range h.Accepted {
		b = binfmt.AppendBool(b, a)
	}
	return appendTick(b, h.Now)
}

func (h *HandoffResp) decodeBinary(r *binReader) error {
	n := r.Count(1)
	if cap(h.Accepted) < n {
		h.Accepted = make([]bool, n)
	}
	h.Accepted = h.Accepted[:n]
	for i := range h.Accepted {
		h.Accepted[i] = r.Bool()
	}
	h.Now = r.tick()
	return r.Err
}
