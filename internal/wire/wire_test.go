package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/temporal"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpPing, ID: 1, Version: ProtocolV2},
		{Op: OpQuery, ID: 42, Version: ProtocolV3, Payload: []byte("RETRIEVE o FROM Vehicles o WHERE TRUE")},
		{Op: OpNotify, ID: 0, Version: ProtocolV2, Payload: bytes.Repeat([]byte("x"), 100000)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(&buf, 0)
	for i, want := range frames {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.ID != want.ID || got.Version != want.Version || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %v/%d/%d bytes, want %v/%d/%d bytes",
				i, got.Op, got.ID, len(got.Payload), want.Op, want.ID, len(want.Payload))
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("at end: got %v, want io.EOF", err)
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, Frame{Op: OpPing, ID: 7, Version: ProtocolV2, Payload: []byte{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(i int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[i] = b
		return out
	}
	oversized := append([]byte(nil), valid[:HeaderSize]...)
	binary.BigEndian.PutUint32(oversized[12:16], 1<<30)

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad magic", corrupt(0, 'X'), ErrBadFrame},
		{"bad version", corrupt(2, 99), ErrBadFrame},
		{"retired version 1", corrupt(2, 1), ErrBadFrame},
		{"bad opcode", corrupt(3, 200), ErrBadFrame},
		{"retired opcode 13", corrupt(3, 13), ErrBadFrame},
		{"oversized", oversized, ErrFrameTooLarge},
		{"truncated header", valid[:5], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-1], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(bytes.NewReader(tc.in), 1<<20)
			_, err := d.Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// A decoder pinned to a negotiated version must reject frames carrying any
// other version — the mid-session protocol-violation disconnect.
func TestDecoderPinnedVersionRejectsOthers(t *testing.T) {
	v2, err := AppendFrame(nil, Frame{Op: OpPing, ID: 2, Version: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := AppendFrame(nil, Frame{Op: OpPing, ID: 3, Version: ProtocolV3})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(append(append([]byte(nil), v2...), v3...)), 0)
	d.SetVersion(ProtocolV2)
	if _, err := d.Next(); err != nil {
		t.Fatalf("pinned version rejected its own version: %v", err)
	}
	if _, err := d.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v3 frame on a v2-pinned decoder: got %v, want ErrBadFrame", err)
	}
	// Version 1 is retired: no frame can be encoded at it (nor at the
	// zero value), and no decoder accepts one.
	for _, v := range []uint8{0, 1} {
		if _, err := AppendFrame(nil, Frame{Op: OpPing, ID: 1, Version: v}); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("encoding a version-%d frame: got %v, want ErrBadFrame", v, err)
		}
		if _, err := EncodeFrame(v, OpPing, 1, nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("EncodeFrame at version %d: got %v, want ErrBadFrame", v, err)
		}
	}
}

// tattletaleReader serves a frame header and fails the test if the decoder
// asks for a single byte beyond it.
type tattletaleReader struct {
	t   *testing.T
	hdr *bytes.Reader
}

func (r *tattletaleReader) Read(p []byte) (int, error) {
	if r.hdr.Len() == 0 {
		r.t.Fatal("decoder read past the header of an oversized frame")
	}
	return r.hdr.Read(p)
}

// The hostile-input regression for ErrFrameTooLarge: a frame declaring a
// payload beyond the negotiated max must be rejected on the header alone —
// no payload byte read, no payload byte allocated.
func TestDecoderRejectsOversizedBeforeReadingPayload(t *testing.T) {
	valid, err := AppendFrame(nil, Frame{Op: OpPing, ID: 7, Version: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), valid[:HeaderSize]...)
	binary.BigEndian.PutUint32(hdr[12:16], 1<<31) // declare 2 GiB
	d := NewDecoder(&tattletaleReader{t: t, hdr: bytes.NewReader(hdr)}, 1<<20)
	_, err = d.Next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestDecoderPayloadBound(t *testing.T) {
	f := Frame{Op: OpQuery, ID: 1, Version: ProtocolV2, Payload: bytes.Repeat([]byte("a"), 2048)}
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf), 1024)
	if _, err := d.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []eval.Val{
		eval.ObjVal("car-00001"),
		eval.NumVal(3.141592653589793),
		eval.NumVal(-0.1),
		eval.StrVal("hello\x00world"),
		eval.BoolVal(true),
		{},
	}
	for _, v := range vals {
		got := FromVal(v).Val()
		if got != v {
			t.Fatalf("round trip changed %#v to %#v", v, got)
		}
	}
}

func TestRowsAtAndCanonical(t *testing.T) {
	answer := []AnswerRow{
		{Vals: []Value{FromVal(eval.ObjVal("a"))}, Start: 0, End: 10},
		{Vals: []Value{FromVal(eval.ObjVal("b"))}, Start: 5, End: 5},
	}
	if rows := RowsAt(answer, 5); len(rows) != 2 {
		t.Fatalf("at 5: %d rows, want 2", len(rows))
	}
	if rows := RowsAt(answer, temporal.Tick(11)); len(rows) != 0 {
		t.Fatalf("at 11: %d rows, want 0", len(rows))
	}
	// Canonical form is order-independent.
	rev := []AnswerRow{answer[1], answer[0]}
	if CanonicalAnswers(answer) != CanonicalAnswers(rev) {
		t.Fatal("canonical form depends on order")
	}
}
