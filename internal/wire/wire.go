// Package wire is the MOST client/server wire protocol: a length-prefixed,
// versioned frame codec carrying typed payloads.  One frame is
//
//	magic   2 bytes  'M' 'W'
//	version 1 byte   protocol version of the payload encoding (2 or 3)
//	opcode  1 byte   Opcode
//	id      8 bytes  big-endian request ID (0 on unsolicited pushes)
//	length  4 bytes  big-endian payload length
//	payload length bytes
//
// The 16-byte header is identical in every protocol version.  Payloads
// are the compact binary encoding of binary.go (fixed-width little-endian
// numbers, varint-prefixed strings, IEEE-754 float64 bits), which
// round-trips every value exactly — what lets the loopback oracle demand
// bit-identical answers across the wire.  Version 3 is version 2 plus the
// delta form of NOTIFY: a push that carries only the instantiations an
// install changed, relative to the answer the client already holds.  Every
// other payload encodes byte-identically at both versions.  (Version 1,
// JSON payloads, is retired: a version-1 frame is a protocol violation.)
//
// Sessions negotiate the version in the Hello handshake: Hello frames are
// always version 2 (MinProtocolVersion), the client advertises the highest
// version it speaks (HelloReq.MaxVersion), and the server answers with the
// session version (HelloResp.Version = min of the two) — every subsequent
// frame in either direction carries exactly that version.  See PROTOCOL.md
// for the formal specification: header layout, opcode table, payload
// grammars byte by byte, and the negotiation state machine.
//
// Requests carry a per-connection-unique ID; every response echoes the ID
// of the request it answers, so a client may pipeline any number of
// requests on one connection and match answers as they return.  Server
// pushes (OpNotify, OpSubClosed) carry ID 0 and are routed by the
// subscription ID inside the payload.
//
// The decoder is hostile-input safe: it validates the magic, version, and
// payload bound before reading or allocating the payload, allocates at
// most the configured bound per frame, and returns errors — it never
// panics on malformed, truncated, or oversized input (FuzzWireDecode locks
// this in).  A declared length beyond the bound fails with
// ErrFrameTooLarge before a single payload byte is read.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/mostdb/most/internal/binfmt"
)

// Protocol versions.  V2 frames carry the compact binary encoding; V3
// frames carry the V2 encoding except that a NOTIFY may take the delta form
// (Notify.Delta).  The Hello handshake (always spoken at
// MinProtocolVersion) negotiates the session version.
const (
	// ProtocolV2 is the compact binary payload encoding.
	ProtocolV2 = 2
	// ProtocolV3 is ProtocolV2 plus delta-form NOTIFY pushes.
	ProtocolV3 = 3
	// MinProtocolVersion is the lowest version this package implements:
	// the version of every Hello and of any error sent before one.
	MinProtocolVersion = ProtocolV2
	// MaxProtocolVersion is the highest version this package implements.
	MaxProtocolVersion = ProtocolV3
)

// HeaderSize is the fixed frame header length in bytes, identical across
// protocol versions.
const HeaderSize = 16

// DefaultMaxPayload bounds a frame's payload unless the decoder is
// configured otherwise.  Snapshots are the largest legitimate payloads.
const DefaultMaxPayload = 64 << 20

// magic identifies a MOST wire frame.
var magic = [2]byte{'M', 'W'}

// Opcode discriminates frame payloads.  The opcode space is shared by every
// protocol version.
type Opcode uint8

// Request opcodes (client to server).
const (
	OpHello        Opcode = 1  // HelloReq: session setup, identity, version negotiation
	OpPing         Opcode = 2  // empty: liveness probe
	OpQuery        Opcode = 3  // QueryReq: instantaneous FTL query
	OpUpdateBatch  Opcode = 4  // UpdateBatchReq: batched explicit updates
	OpAdvance      Opcode = 5  // AdvanceReq: advance the clock
	OpObjects      Opcode = 6  // ObjectsReq: list objects with positions
	OpSnapshotSave Opcode = 7  // empty: serialize the database state
	OpSnapshotLoad Opcode = 8  // SnapshotLoadReq: replace the database state
	OpSubscribe    Opcode = 9  // SubscribeReq: register a continuous query
	OpUnsubscribe  Opcode = 10 // UnsubscribeReq: cancel a subscription

	// Cluster opcodes (PROTOCOL.md §7).  ZoneMap is spoken by ordinary
	// clients discovering the cluster topology; Handoff is node-to-node,
	// carried on peer sessions (HelloReq.Peer).  Opcode 13 is retired
	// (it relayed a batch between nodes) and never reused.
	OpZoneMap Opcode = 11 // empty request: fetch the cluster zone map
	OpHandoff Opcode = 12 // HandoffReq: transfer a moving object between nodes
)

// Response and push opcodes (server to client).
const (
	OpResult    Opcode = 32 // payload depends on the request opcode
	OpError     Opcode = 33 // ErrorResp
	OpNotify    Opcode = 34 // Notify: new Answer(CQ) after maintenance (push)
	OpSubClosed Opcode = 35 // SubClosed: server-side subscription teardown (push)
)

// String names the opcode for metrics and errors.
func (o Opcode) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpPing:
		return "ping"
	case OpQuery:
		return "query"
	case OpUpdateBatch:
		return "update_batch"
	case OpAdvance:
		return "advance"
	case OpObjects:
		return "objects"
	case OpSnapshotSave:
		return "snapshot_save"
	case OpSnapshotLoad:
		return "snapshot_load"
	case OpSubscribe:
		return "subscribe"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpZoneMap:
		return "zone_map"
	case OpHandoff:
		return "handoff"
	case OpResult:
		return "result"
	case OpError:
		return "error"
	case OpNotify:
		return "notify"
	case OpSubClosed:
		return "sub_closed"
	default:
		return fmt.Sprintf("opcode(%d)", uint8(o))
	}
}

// valid reports whether the opcode is one this protocol defines.
func (o Opcode) valid() bool {
	return (o >= OpHello && o <= OpHandoff) || (o >= OpResult && o <= OpSubClosed)
}

// Frame is one decoded protocol frame.  Version is the protocol version
// (ProtocolV2 or ProtocolV3); a frame must carry one to be encoded.
type Frame struct {
	Op      Opcode
	ID      uint64
	Version uint8
	Payload []byte

	// pbuf, when non-nil, is the encode-pool slot backing Payload
	// (EncodePooled); Recycle returns it.  The pointer travels with struct
	// copies, so a frame must be Detach()ed before being retained past its
	// write.
	pbuf *[]byte
}

// Decode errors.  ErrFrameTooLarge and ErrBadFrame mark input that must
// not be retried verbatim; io errors pass through unwrapped so callers can
// detect EOF and timeouts.
var (
	// ErrBadFrame marks a malformed header, an unknown opcode, a protocol
	// version outside the decoder's accepted range, or an undecodable
	// payload.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrFrameTooLarge marks a frame whose declared payload length exceeds
	// the negotiated maximum.  The decoder rejects the frame before reading
	// a single payload byte, so a hostile length field costs nothing.
	ErrFrameTooLarge = errors.New("wire: frame exceeds payload bound")
)

// NegotiateVersion computes the session protocol version from the client's
// advertised maximum (HelloReq.MaxVersion) and the server's configured
// maximum: min of the two, clamped to [MinProtocolVersion,
// MaxProtocolVersion], so the result is always a version both sides speak.
func NegotiateVersion(clientMax, serverMax int) uint8 {
	return uint8(max(MinProtocolVersion, min(clientMax, serverMax, MaxProtocolVersion)))
}

// speaks reports whether v is a protocol version this package implements.
func speaks(v uint8) bool { return v >= MinProtocolVersion && v <= MaxProtocolVersion }

// AppendFrame serializes the frame onto buf and returns the extended
// slice.  It refuses payloads beyond the uint32 range and versions this
// package does not speak.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > int(^uint32(0)) {
		return nil, fmt.Errorf("%w: %d byte payload", ErrFrameTooLarge, len(f.Payload))
	}
	v := f.Version
	if !speaks(v) {
		return nil, fmt.Errorf("%w: cannot encode version %d", ErrBadFrame, v)
	}
	var hdr [HeaderSize]byte
	hdr[0], hdr[1] = magic[0], magic[1]
	hdr[2] = v
	hdr[3] = byte(f.Op)
	binary.BigEndian.PutUint64(hdr[4:12], f.ID)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, f.Payload...), nil
}

// WriteFrame serializes the frame to w in one Write call, so concurrent
// writers interleave only at frame granularity when w serializes writes.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// EncodeFrame encodes payload at the given protocol version.  payload must
// be nil (an empty frame body) or a pointer to one of this package's
// payload types.
func EncodeFrame(version uint8, op Opcode, id uint64, payload any) (Frame, error) {
	ba, err := binaryForm(version, op, payload)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Op: op, ID: id, Version: version}
	if ba != nil {
		f.Payload = appendPayload(nil, ba, version)
	}
	return f, nil
}

// binaryForm validates an encode request and returns payload's binary
// form (nil for a nil payload).  It refuses versions this package does not
// speak, and a delta-form NOTIFY below version 3: version 2 has no way to
// mark it, and a client would take its rows for the whole answer.
func binaryForm(version uint8, op Opcode, payload any) (binaryPayload, error) {
	if !speaks(version) {
		return nil, fmt.Errorf("%w: cannot encode version %d", ErrBadFrame, version)
	}
	if payload == nil {
		return nil, nil
	}
	ba, ok := payload.(binaryPayload)
	if !ok {
		return nil, fmt.Errorf("wire: encode %s: %T is not a wire payload (pass a pointer to a payload type)", op, payload)
	}
	if n, ok := payload.(*Notify); ok && n.Delta && version < ProtocolV3 {
		return nil, fmt.Errorf("wire: encode %s: delta form needs protocol version %d, session speaks %d", op, ProtocolV3, version)
	}
	return ba, nil
}

// encBufPool recycles payload buffers between EncodePooled and Recycle so
// the steady-state encode path performs no allocation.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// EncodePooled is EncodeFrame drawing the payload buffer from an internal
// pool.  The returned frame must be handed to Recycle after its last use
// (typically: after the socket write), or detached with Frame.Detach if it
// is retained.
func EncodePooled(version uint8, op Opcode, id uint64, payload any) (Frame, error) {
	ba, err := binaryForm(version, op, payload)
	if err != nil || ba == nil {
		return EncodeFrame(version, op, id, payload)
	}
	bp := encBufPool.Get().(*[]byte)
	*bp = appendPayload((*bp)[:0], ba, version)
	return Frame{Op: op, ID: id, Version: version, Payload: *bp, pbuf: bp}, nil
}

// Recycle returns a pooled frame's payload buffer to the encode pool.  The
// frame (and any copy of it) must not be used afterwards.  Frames that are
// not pool-backed are ignored.
func Recycle(f Frame) {
	if f.pbuf == nil {
		return
	}
	encBufPool.Put(f.pbuf)
}

// Detach returns a frame safe to retain indefinitely: a pooled payload is
// copied out of the pool buffer, a plain frame is returned unchanged.
func (f Frame) Detach() Frame {
	if f.pbuf == nil {
		return f
	}
	f.Payload = append([]byte(nil), f.Payload...)
	f.pbuf = nil
	return f
}

// Decoder reads frames from a stream with a hard payload bound and a
// negotiable accepted-version window.
type Decoder struct {
	r          io.Reader
	max        uint32
	vmin, vmax uint8
	hdr        [HeaderSize]byte
	buf        []byte // NextReuse payload buffer, reused across frames
}

// NewDecoder returns a decoder over r accepting every protocol version
// this package speaks (pin the session version with SetVersion after
// negotiation).  maxPayload bounds per-frame allocation; values <= 0
// select DefaultMaxPayload.
func NewDecoder(r io.Reader, maxPayload int) *Decoder {
	max := uint32(DefaultMaxPayload)
	if maxPayload > 0 && maxPayload <= int(^uint32(0)) {
		max = uint32(maxPayload)
	}
	return &Decoder{r: r, max: max, vmin: MinProtocolVersion, vmax: MaxProtocolVersion}
}

// SetVersion pins the decoder to exactly one accepted protocol version.
// Sessions call it with MinProtocolVersion before the handshake and with
// the negotiated version after; any frame carrying another version is then
// a protocol violation (ErrBadFrame) and the session disconnects.
func (d *Decoder) SetVersion(v uint8) { d.vmin, d.vmax = v, v }

// SetMax renegotiates the decoder's per-frame payload bound mid-stream.
// Sessions use it to raise the limit for authenticated cluster peers
// (bulk handoff frames exceed the client-facing cap) without loosening
// the hostile-input bound applied to ordinary connections; values <= 0
// are ignored.
func (d *Decoder) SetMax(maxPayload int) {
	if maxPayload > 0 && maxPayload <= int(^uint32(0)) {
		d.max = uint32(maxPayload)
	}
}

// Reset redirects the decoder to a new stream, keeping its payload bound,
// accepted versions, and internal buffers (so a pooled decoder stays
// allocation-free).
func (d *Decoder) Reset(r io.Reader) { d.r = r }

// Next reads one frame whose payload is freshly allocated and safe to
// retain.  The header is fully validated — magic, version window, opcode,
// declared length against the payload bound — before the payload is read
// or allocated, so a hostile length field fails with ErrFrameTooLarge at
// zero cost; any other violation returns an error wrapping ErrBadFrame.
// A clean EOF at a frame boundary returns io.EOF; EOF inside a frame
// returns io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Frame, error) {
	return d.next(false)
}

// NextReuse is Next with the payload backed by an internal buffer that is
// overwritten by the following Next/NextReuse call.  It is the ingest hot
// path: after warm-up no allocation occurs per frame.  The caller must
// fully consume (or copy) the payload before decoding the next frame.
func (d *Decoder) NextReuse() (Frame, error) {
	return d.next(true)
}

func (d *Decoder) next(reuse bool) (Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:1]); err != nil {
		return Frame{}, err
	}
	if _, err := io.ReadFull(d.r, d.hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if d.hdr[0] != magic[0] || d.hdr[1] != magic[1] {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, d.hdr[:2])
	}
	v := d.hdr[2]
	if v < d.vmin || v > d.vmax {
		if d.vmin == d.vmax {
			return Frame{}, fmt.Errorf("%w: frame version %d, session negotiated %d", ErrBadFrame, v, d.vmin)
		}
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	op := Opcode(d.hdr[3])
	if !op.valid() {
		return Frame{}, fmt.Errorf("%w: unknown opcode %d", ErrBadFrame, d.hdr[3])
	}
	n := binary.BigEndian.Uint32(d.hdr[12:16])
	if n > d.max {
		return Frame{}, fmt.Errorf("%w: declared %d bytes, negotiated max %d", ErrFrameTooLarge, n, d.max)
	}
	f := Frame{Op: op, ID: binary.BigEndian.Uint64(d.hdr[4:12]), Version: v}
	if n > 0 {
		if reuse {
			if cap(d.buf) < int(n) {
				d.buf = make([]byte, n)
			}
			f.Payload = d.buf[:n]
		} else {
			f.Payload = make([]byte, n)
		}
		if _, err := io.ReadFull(d.r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// Unmarshal decodes a frame payload into v, which must be a pointer to the
// matching payload type, according to the frame's protocol version.
func Unmarshal(f Frame, v any) error {
	return UnmarshalInterned(f, v, nil)
}

// UnmarshalInterned is Unmarshal with a string interner for the hot path:
// recurring strings (object IDs, attribute names) resolve to previously
// allocated instances, so a steady-state update stream decodes with zero
// allocations.  A nil Interner disables interning.
func UnmarshalInterned(f Frame, v any, in Interner) error {
	if len(f.Payload) == 0 {
		return nil
	}
	if !speaks(f.Version) {
		return fmt.Errorf("%w: %s payload at unsupported version %d", ErrBadFrame, f.Op, f.Version)
	}
	bd, ok := v.(binaryPayload)
	if !ok {
		return fmt.Errorf("%w: %s payload: %T is not a wire payload", ErrBadFrame, f.Op, v)
	}
	// The reader is pooled: passing &r through the interface method would
	// force a heap allocation per decode otherwise.
	r := binReaderPool.Get().(*binReader)
	*r = binReader{Reader: binfmt.Reader{Data: f.Payload}, in: in, version: f.Version}
	err := bd.decodeBinary(r)
	if err == nil {
		err = r.End()
	}
	r.Data = nil
	binReaderPool.Put(r)
	if err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrBadFrame, f.Op, err)
	}
	return nil
}
