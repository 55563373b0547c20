package binfmt

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU32(b, 1<<31)
	b = AppendU64(b, math.MaxUint64)
	b = AppendI64(b, math.MinInt64)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -300)
	b = AppendStr(b, "Zürich")
	b = AppendBytes(b, []byte{0, 1})
	b = AppendBool(b, true)

	r := Reader{Data: b}
	if r.U8() != 7 || r.U32() != 1<<31 || r.U64() != math.MaxUint64 || r.I64() != math.MinInt64 {
		t.Fatal("fixed-width integers do not round-trip")
	}
	if f := r.F64(); f != 0 || !math.Signbit(f) {
		t.Fatalf("-0.0 decoded as %v", f)
	}
	if r.Uvarint() != 300 || r.Varint() != -300 || r.Str() != "Zürich" || string(r.StrBytes()) != "\x00\x01" || !r.Bool() {
		t.Fatal("varints and strings do not round-trip")
	}
	if r.Err != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err, r.Remaining())
	}
}

// Hostile lengths and counts fail against the bytes remaining, stickily,
// before anything is allocated.
func TestHostileInputFailsSticky(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		read func(r *Reader)
	}{
		"string length":   {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Str() }},
		"u32 count":       {AppendU32(nil, math.MaxUint32), func(r *Reader) { r.Count(1) }},
		"varint count":    {AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.VarCount(1) }},
		"count x minElem": {append(AppendUvarint(nil, 3), 0, 0, 0, 0, 0), func(r *Reader) { r.VarCount(2) }},
		"truncated u64":   {[]byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		"bad varint":      {[]byte{0xff, 0xff}, func(r *Reader) { r.Varint() }},
	} {
		r := Reader{Data: tc.data}
		tc.read(&r)
		if r.Err == nil {
			t.Fatalf("%s: accepted", name)
		}
		first := r.Err
		if r.U8() != 0 || r.Str() != "" || r.Err != first {
			t.Fatalf("%s: error not sticky", name)
		}
	}
	r := Reader{Data: append(AppendUvarint(nil, 2), 0, 0, 0, 0)}
	if n := r.VarCount(2); n != 2 || r.Err != nil {
		t.Fatalf("count that fits rejected: n=%d err=%v", n, r.Err)
	}
}
