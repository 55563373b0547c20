package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/binfmt"
	"github.com/mostdb/most/internal/temporal"
)

// roundTrip encodes in at version v, runs it through a full frame
// encode/decode, and unmarshals into a fresh value.
func roundTrip[T any](t *testing.T, v uint8, op Opcode, in *T) *T {
	t.Helper()
	f, err := EncodeFrame(v, op, 7, in)
	if err != nil {
		t.Fatalf("encode v%d %T: %v", v, in, err)
	}
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewDecoder(bytes.NewReader(buf), 0).Next()
	if err != nil {
		t.Fatalf("decode v%d %T: %v", v, in, err)
	}
	if g.Version != v {
		t.Fatalf("frame version %d, want %d", g.Version, v)
	}
	out := new(T)
	if err := Unmarshal(g, out); err != nil {
		t.Fatalf("unmarshal v%d %T: %v", v, in, err)
	}
	return out
}

// bothVersions asserts the payload round-trips unchanged at versions 2 and
// 3, and — NOTIFY aside — encodes to the same bytes at both.
func bothVersions[T any](t *testing.T, op Opcode, in *T) {
	t.Helper()
	for _, v := range []uint8{ProtocolV2, ProtocolV3} {
		if out := roundTrip(t, v, op, in); !reflect.DeepEqual(out, in) {
			t.Fatalf("v%d round trip changed %T:\n in:  %#v\n out: %#v", v, in, in, out)
		}
	}
	f2, _ := EncodeFrame(ProtocolV2, op, 7, in)
	f3, _ := EncodeFrame(ProtocolV3, op, 7, in)
	if _, notify := any(in).(*Notify); !notify && !bytes.Equal(f2.Payload, f3.Payload) {
		t.Fatalf("%T encodes differently at v2 and v3", in)
	}
}

func TestBinaryPayloadsRoundTrip(t *testing.T) {
	vals := []Value{
		{Kind: 1, Obj: "car-00017"},
		{Kind: 2, Num: -math.MaxFloat64},
		{Kind: 2, Num: 0.1 + 0.2}, // not representable exactly: bits must survive
		{Kind: 3, Str: "hello\x00world — ünïcode"},
		{Kind: 4, Bool: true},
		{},
	}
	rows := []AnswerRow{
		{Vals: vals, Start: -3, End: temporal.Tick(math.MaxInt64)},
		{Start: 5, End: 5},
	}
	val := Value{Kind: 2, Num: 99}

	bothVersions(t, OpHello, &HelloReq{ClientID: "c-1", MaxVersion: 3, Epoch: 9, Peer: true})
	bothVersions(t, OpResult, &HelloResp{Server: "mostserver", Version: 2, Resumed: true})
	bothVersions(t, OpQuery, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50})
	bothVersions(t, OpQuery, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50, DeadlineMS: 1500})
	bothVersions(t, OpResult, &QueryResp{Now: 12, Rows: [][]Value{vals, {vals[0]}}})
	bothVersions(t, OpUpdateBatch, &UpdateBatchReq{DeadlineMS: 250, Ops: []UpdateOp{
		{Op: OpSetMotion, ID: "car-1", VX: 1.5, VY: -2.25},
		{Op: OpSetStatic, ID: "car-2", Attr: "PRICE", Value: &val},
		{Op: OpSetStatic, ID: "car-2", Attr: "FLAG"},
		{Op: OpInsert, ID: "car-3", Object: []byte("\x05car-3\x04Cars\x00")},
		{Op: OpDelete, ID: "car-1"},
	}})
	bothVersions(t, OpResult, &UpdateBatchResp{Applied: 5, Now: 9, Version: 1 << 40})
	bothVersions(t, OpAdvance, &AdvanceReq{D: 17})
	bothVersions(t, OpResult, &AdvanceResp{Now: 17})
	bothVersions(t, OpObjects, &ObjectsReq{Class: "Vehicles"})
	bothVersions(t, OpResult, &ObjectsResp{Now: 3, Objects: []ObjectInfo{
		{ID: "a", Class: "Vehicles", HasPos: true, X: 1.25, Y: -9},
		{ID: "b", Class: "Motels"},
	}})
	bothVersions(t, OpSnapshotLoad, &SnapshotLoadReq{Data: []byte(`{"now":4}`)})
	bothVersions(t, OpResult, &SnapshotLoadResp{Now: 4, Objects: 7})
	bothVersions(t, OpResult, &SnapshotResp{Data: []byte(`{"now":4}`)})
	bothVersions(t, OpSubscribe, &SubscribeReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 9})
	bothVersions(t, OpResult, &SubscribeResp{SubID: 3, Now: 2, Answer: rows})
	bothVersions(t, OpUnsubscribe, &UnsubscribeReq{SubID: 3})
	bothVersions(t, OpNotify, &Notify{SubID: 3, Seq: 41, Answer: rows})
	bothVersions(t, OpSubClosed, &SubClosed{SubID: 3, Reason: "database replaced"})
	bothVersions(t, OpError, &ErrorResp{Msg: "no such object"})
	bothVersions(t, OpError, &ErrorResp{Msg: "shed by admission control", Code: CodeOverloaded})
}

// Float64 payloads must survive bit-exactly, including NaN payloads and
// negative zero, which DeepEqual cannot check.
func TestBinaryFloat64BitExact(t *testing.T) {
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		0x7ff8000000000001, // NaN with a payload
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
	} {
		in := Value{Kind: 2, Num: math.Float64frombits(bits)}
		var out Value
		r := binReader{Reader: binfmt.Reader{Data: in.appendBinary(nil)}}
		if err := out.decodeBinary(&r); err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(out.Num); got != bits {
			t.Fatalf("float bits %#x decoded as %#x", bits, got)
		}
	}
}

// An op kind v2 cannot express must fail loudly on decode, not silently
// drop or mangle the op.
func TestBinaryUnknownUpdateOpRejected(t *testing.T) {
	bad := UpdateOp{Op: "explode", ID: "car-1"}
	f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 1, &UpdateBatchReq{Ops: []UpdateOp{bad}})
	if err != nil {
		t.Fatal(err)
	}
	var out UpdateBatchReq
	if err := Unmarshal(f, &out); err == nil {
		t.Fatal("unknown op kind decoded without error")
	}
}

// A hostile element count far beyond the actual payload must be rejected
// by the count-vs-remaining check, not trigger a huge allocation.
func TestBinaryHostileCountRejected(t *testing.T) {
	buf := binfmt.AppendU32(binfmt.AppendI64(nil, 0), 1<<31) // one billion ops declared, zero bytes present
	f := Frame{Op: OpUpdateBatch, ID: 1, Version: ProtocolV2, Payload: buf}
	var out UpdateBatchReq
	err := Unmarshal(f, &out)
	if err == nil {
		t.Fatal("hostile count decoded without error")
	}
	if !strings.Contains(err.Error(), "count") {
		t.Fatalf("want count-bound error, got: %v", err)
	}
}

// Trailing bytes after a well-formed v2 payload are a framing error.
func TestBinaryTrailingBytesRejected(t *testing.T) {
	req := AdvanceReq{D: 4}
	payload := append(req.appendBinary(nil), 0xEE)
	f := Frame{Op: OpAdvance, ID: 1, Version: ProtocolV2, Payload: payload}
	var out AdvanceReq
	if err := Unmarshal(f, &out); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

// Truncations at every prefix length must error, never panic.
func TestBinaryTruncationsError(t *testing.T) {
	full, err := EncodeFrame(ProtocolV2, OpNotify, 0, &Notify{
		SubID: 1, Seq: 2,
		Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "x"}}, Start: 1, End: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// i starts at 1: a zero-length payload is the legal "no payload" frame.
	for i := 1; i < len(full.Payload); i++ {
		f := Frame{Op: OpNotify, Version: ProtocolV2, Payload: full.Payload[:i]}
		var out Notify
		if err := Unmarshal(f, &out); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", i, len(full.Payload))
		}
	}
}

func TestNegotiateVersion(t *testing.T) {
	cases := []struct {
		clientMax, serverMax int
		want                 uint8
	}{
		{2, 2, 2},   // both speak v2
		{3, 2, 2},   // v3 client against v2 server: full notifies only
		{2, 3, 2},   // v2 client against v3 server
		{3, 3, 3},   // both speak v3: delta notifies
		{99, 99, 3}, // futures clamp to what we implement
		{1, 3, 2},   // version 1 is retired: clamps up to v2
		{3, 1, 2},
		{0, 3, 2},
		{-5, 2, 2}, // nonsense clamps up to v2
	}
	for _, tc := range cases {
		if got := NegotiateVersion(tc.clientMax, tc.serverMax); got != tc.want {
			t.Errorf("NegotiateVersion(%d, %d) = %d, want %d", tc.clientMax, tc.serverMax, got, tc.want)
		}
	}
}

// Pooled frames must detach into stable copies before the pool reclaims
// the buffer — the idempotence cache depends on this.
func TestEncodePooledDetachAndRecycle(t *testing.T) {
	f, err := EncodePooled(ProtocolV2, OpResult, 1, &UpdateBatchResp{Applied: 3, Now: 9, Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Detach()
	want := append([]byte(nil), f.Payload...)
	Recycle(f)
	// Reuse the pool slot and scribble over it.
	g, err := EncodePooled(ProtocolV2, OpResult, 2, &UpdateBatchResp{Applied: 999999, Now: -1, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept.Payload, want) {
		t.Fatal("detached frame changed after its pooled original was recycled")
	}
	var out UpdateBatchResp
	if err := Unmarshal(kept, &out); err != nil || out.Applied != 3 {
		t.Fatalf("detached frame undecodable: %v, %+v", err, out)
	}
	Recycle(g)
}

// The interner must return identical string instances for recurring IDs
// and stay bounded against an adversary cycling unique IDs.
func TestInterner(t *testing.T) {
	in := Interner{}
	a := in.Intern([]byte("car-1"))
	b := in.Intern([]byte("car-1"))
	if a != b {
		t.Fatal("interner returned unequal strings")
	}
	if len(in) != 1 {
		t.Fatalf("interner holds %d entries, want 1", len(in))
	}
	if got := Interner(nil).Intern([]byte("x")); got != "x" {
		t.Fatalf("nil interner returned %q", got)
	}
}

// Decoding into a reused struct must not leak fields from a previous op
// of a different kind.
func TestBinaryDecodeIntoReusedStruct(t *testing.T) {
	first := UpdateBatchReq{Ops: []UpdateOp{{
		Op: OpSetStatic, ID: "car-1", Attr: "PRICE", Value: &Value{Kind: 2, Num: 9},
	}}}
	second := UpdateBatchReq{Ops: []UpdateOp{{Op: OpSetMotion, ID: "car-2", VX: 1, VY: 2}}}
	var dst UpdateBatchReq
	in := Interner{}
	for _, req := range []*UpdateBatchReq{&first, &second} {
		f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 1, req)
		if err != nil {
			t.Fatal(err)
		}
		dst.Ops = dst.Ops[:0]
		if err := UnmarshalInterned(f, &dst, in); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst.Ops, req.Ops) {
			t.Fatalf("reused decode diverged:\n got:  %#v\n want: %#v", dst.Ops, req.Ops)
		}
	}
	if dst.Ops[0].Attr != "" || dst.Ops[0].Value != nil {
		t.Fatal("fields leaked from previous op kind")
	}
}
