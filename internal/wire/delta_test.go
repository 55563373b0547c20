package wire

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/binfmt"
)

var goldenNotify = &Notify{SubID: 7, Seq: 3, Answer: []AnswerRow{
	{Vals: []Value{{Kind: 1, Obj: "car-00002"}}, Start: 4, End: 19},
	{Vals: []Value{{Kind: 1, Obj: "car-00005"}, {Kind: 2, Num: 2.5}}, Start: -1, End: 1 << 40},
}}

// TestNotifyFullFormGolden pins the full-form NOTIFY frame of version 2
// byte for byte to its encoding before version 3 existed: the delta form
// must not change what version-2 sessions receive.
func TestNotifyFullFormGolden(t *testing.T) {
	golden := map[uint8]string{
		ProtocolV2: "4d57022200000000000000000000007207000000000000000300000000000000020000000100000001096361722d303030303200000000000000000000040000000000000013000000000000000200000001096361722d303030303500000000000000000000020000000000000004400000ffffffffffffffff0000000000010000",
	}
	for v, want := range golden {
		for _, pooled := range []bool{false, true} {
			enc := EncodeFrame
			if pooled {
				enc = EncodePooled
			}
			f, err := enc(v, OpNotify, 0, goldenNotify)
			if err != nil {
				t.Fatal(err)
			}
			b, err := AppendFrame(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != want {
				t.Errorf("v%d full NOTIFY (pooled=%v) changed:\n got:  %s\n want: %s", v, pooled, got, want)
			}
		}
	}
}

// Version 3 round-trips both NOTIFY forms exactly; its full form is the
// version-2 payload with the form byte after seq.
func TestNotifyV3Forms(t *testing.T) {
	full := roundTrip(t, ProtocolV3, OpNotify, goldenNotify)
	if !reflect.DeepEqual(full, goldenNotify) {
		t.Fatalf("v3 full form round trip changed the payload:\n got:  %#v\n want: %#v", full, goldenNotify)
	}
	v2, _ := EncodeFrame(ProtocolV2, OpNotify, 0, goldenNotify)
	v3, _ := EncodeFrame(ProtocolV3, OpNotify, 0, goldenNotify)
	if want := string(v2.Payload[:16]) + "\x00" + string(v2.Payload[16:]); string(v3.Payload) != want {
		t.Fatal("v3 full form is not the v2 payload plus a zero form byte")
	}

	delta := &Notify{SubID: 7, Seq: 5, Delta: true, Base: 3,
		Gone:   [][]Value{{{Kind: 1, Obj: "car-00002"}}, {{Kind: 3, Str: "s"}}},
		Answer: goldenNotify.Answer[1:]}
	if got := roundTrip(t, ProtocolV3, OpNotify, delta); !reflect.DeepEqual(got, delta) {
		t.Fatalf("v3 delta form round trip changed the payload:\n got:  %#v\n want: %#v", got, delta)
	}
	empty := &Notify{SubID: 1, Seq: 9, Delta: true, Base: 8}
	if got := roundTrip(t, ProtocolV3, OpNotify, empty); !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty delta round trip: %#v", got)
	}

	// Decoding a full form into a struct that held a delta clears it.
	f, _ := EncodeFrame(ProtocolV3, OpNotify, 0, goldenNotify)
	reused := *delta
	if err := Unmarshal(f, &reused); err != nil || reused.Delta || reused.Base != 0 || reused.Gone != nil {
		t.Fatalf("full form decoded into a reused delta: %+v, %v", reused, err)
	}
}

// The delta form cannot be encoded for a session below version 3.
func TestNotifyDeltaNeedsV3(t *testing.T) {
	d := &Notify{SubID: 1, Seq: 2, Delta: true, Base: 1}
	for _, v := range []uint8{ProtocolV2} {
		if _, err := EncodeFrame(v, OpNotify, 0, d); err == nil {
			t.Errorf("delta NOTIFY encoded at version %d", v)
		}
		if _, err := EncodePooled(v, OpNotify, 0, d); err == nil {
			t.Errorf("delta NOTIFY pooled-encoded at version %d", v)
		}
	}
}

// Hostile v3 NOTIFY payloads fail cleanly: an unknown form byte, a gone
// count or row count beyond the payload, and every truncation.
func TestNotifyV3Hostile(t *testing.T) {
	head := binfmt.AppendU64(binfmt.AppendU64(nil, 1), 2)
	cases := map[string][]byte{
		"unknown form":    appendAnswerRows(binfmt.AppendU8(append([]byte(nil), head...), 7), nil),
		"gone count":      binfmt.AppendU32(binfmt.AppendU64(binfmt.AppendU8(append([]byte(nil), head...), notifyDelta), 1), 1<<30),
		"row count":       binfmt.AppendU32(binfmt.AppendU32(binfmt.AppendU64(binfmt.AppendU8(append([]byte(nil), head...), notifyDelta), 1), 0), 1<<30),
		"full row count":  binfmt.AppendU32(binfmt.AppendU8(append([]byte(nil), head...), notifyFull), 1<<30),
		"missing form":    append([]byte(nil), head...),
		"trailing byte":   append(appendAnswerRows(binfmt.AppendU8(append([]byte(nil), head...), notifyFull), nil), 0),
		"gone vals count": binfmt.AppendU32(binfmt.AppendU32(binfmt.AppendU64(binfmt.AppendU8(append([]byte(nil), head...), notifyDelta), 1), 1), 1<<30),
	}
	for name, payload := range cases {
		var n Notify
		err := Unmarshal(Frame{Op: OpNotify, Version: ProtocolV3, Payload: payload}, &n)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if strings.Contains(name, "count") && !strings.Contains(err.Error(), "count") {
			t.Errorf("%s: want a count-bound error, got %v", name, err)
		}
	}
	delta, _ := EncodeFrame(ProtocolV3, OpNotify, 0, &Notify{SubID: 1, Seq: 2, Delta: true, Base: 1,
		Gone: [][]Value{{{Kind: 1, Obj: "x"}}}, Answer: goldenNotify.Answer})
	for i := 1; i < len(delta.Payload); i++ {
		var n Notify
		if err := Unmarshal(Frame{Op: OpNotify, Version: ProtocolV3, Payload: delta.Payload[:i]}, &n); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", i, len(delta.Payload))
		}
	}
}

// InstanceKey orders instantiations exactly as the canonical answer order.
func TestInstanceKeyMatchesAnswerOrder(t *testing.T) {
	rows := goldenNotify.Answer
	for i := 1; i < len(rows); i++ {
		if InstanceKey(rows[i-1].Vals) >= InstanceKey(rows[i].Vals) {
			t.Fatalf("rows %d and %d out of key order", i-1, i)
		}
	}
	if got, want := string(AppendInstanceKey([]byte("p:"), rows[0].Vals)), "p:"+InstanceKey(rows[0].Vals); got != want {
		t.Fatalf("AppendInstanceKey = %q, want %q", got, want)
	}
}
