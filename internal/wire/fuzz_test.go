package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzWireDecode feeds arbitrary byte streams to the frame decoder and the
// payload unmarshalers of every protocol version.  The invariants: the
// decoder never panics, never allocates more than its configured payload
// bound per frame, consumes the stream frame by frame until an error or
// EOF, every frame it accepts re-encodes to bytes that decode to an
// identical frame, and every payload that decodes re-encodes to
// a canonical byte string (decode∘encode is idempotent) — including both
// forms of the v3 NOTIFY, whose gone and row counts are bounded by the
// payload length before anything is allocated.  Hello payloads
// additionally drive the negotiation state machine: whatever MaxVersion a
// hostile client declares, the negotiated version stays in
// [MinProtocolVersion, MaxProtocolVersion].
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: valid frames of each shape at both versions, then
	// classic hostile inputs.
	ping, _ := AppendFrame(nil, Frame{Op: OpPing, ID: 1, Version: ProtocolV2})
	qf, _ := EncodeFrame(ProtocolV3, OpQuery, 2, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50, DeadlineMS: 30})
	query, _ := AppendFrame(nil, qf)
	sf, _ := EncodeFrame(ProtocolV3, OpSubClosed, 0, &SubClosed{SubID: 3, Reason: "database replaced"})
	subClosed, _ := AppendFrame(nil, sf)
	two := append(append([]byte(nil), ping...), query...)

	qf2, _ := EncodeFrame(ProtocolV2, OpQuery, 2, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50})
	query2, _ := AppendFrame(nil, qf2)
	uf2, _ := EncodeFrame(ProtocolV2, OpUpdateBatch, 4, &UpdateBatchReq{Ops: []UpdateOp{
		{Op: OpSetMotion, ID: "car-1", VX: 1.5, VY: -2},
		{Op: OpDelete, ID: "car-2"},
	}})
	update2, _ := AppendFrame(nil, uf2)
	nf2, _ := EncodeFrame(ProtocolV2, OpNotify, 0, &Notify{SubID: 3, Seq: 9, Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "car-1"}}, Start: 0, End: 7}}})
	notify2, _ := AppendFrame(nil, nf2)
	mixed := append(append([]byte(nil), query...), update2...)
	nf3, _ := EncodeFrame(ProtocolV3, OpNotify, 0, &Notify{SubID: 3, Seq: 9, Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "car-1"}}, Start: 0, End: 7}}})
	notify3, _ := AppendFrame(nil, nf3)
	df3, _ := EncodeFrame(ProtocolV3, OpNotify, 0, &Notify{SubID: 3, Seq: 11, Delta: true, Base: 9,
		Gone:   [][]Value{{{Kind: 1, Obj: "car-1"}}},
		Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "car-2"}}, Start: 2, End: 5}, {Vals: []Value{{Kind: 1, Obj: "car-2"}}, Start: 8, End: 9}}})
	delta3, _ := AppendFrame(nil, df3)
	hostileGone := append(append([]byte(nil), delta3[:HeaderSize+17+8]...), 0xff, 0xff, 0xff, 0x7f)
	binaryBigEndianLength(hostileGone)

	zf2, _ := EncodeFrame(ProtocolV2, OpZoneMap, 5, &ZoneMapResp{Epoch: 1, Zones: []Zone{
		{ID: 0, MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, Addr: "127.0.0.1:1"},
	}, Replicated: []string{"POIs"}})
	zonemap2, _ := AppendFrame(nil, zf2)
	hf2, _ := EncodeFrame(ProtocolV2, OpHandoff, 6, &HandoffReq{From: "127.0.0.1:1", Objects: []HandoffObject{
		{ID: "car-1", Version: 3, Object: []byte("\x05car-1\x04Cars\x00")},
		{ID: "car-2", Version: 1, Object: []byte("\x05car-2\x04Cars\x00")},
	}})
	handoff2, _ := AppendFrame(nil, hf2)
	// from str ("127.0.0.1:1": 1 + 11 bytes), then a hostile object count.
	hostileHandoff := append(append([]byte(nil), handoff2[:HeaderSize+12]...), 0xff, 0xff, 0xff, 0x7f)
	binaryBigEndianLength(hostileHandoff)
	// A frame carrying the retired opcode 13 (a server-to-server relay),
	// which the decoder refuses like any undefined opcode.
	retired := append([]byte(nil), ping...)
	retired[3] = 13

	hello, _ := EncodeFrame(MinProtocolVersion, OpHello, 1, &HelloReq{ClientID: "fuzz", MaxVersion: 2})
	helloFrame, _ := AppendFrame(nil, hello)
	helloHostile, _ := EncodeFrame(MinProtocolVersion, OpHello, 1, &HelloReq{ClientID: "fuzz", MaxVersion: 999})
	helloHostileFrame, _ := AppendFrame(nil, helloHostile)

	f.Add(ping)
	f.Add(query)
	f.Add(subClosed)
	f.Add(two)
	f.Add(query2)
	f.Add(update2)
	f.Add(notify2)
	f.Add(mixed)
	f.Add(notify3)
	f.Add(delta3)
	f.Add(append(append([]byte(nil), notify3...), delta3...))
	f.Add(hostileGone)
	f.Add(zonemap2)
	f.Add(handoff2)
	f.Add(hostileHandoff)
	f.Add(retired)
	f.Add(helloFrame)
	f.Add(helloHostileFrame)
	f.Add([]byte{})
	f.Add([]byte("MW"))                                         // truncated header
	f.Add(append([]byte(nil), ping[:HeaderSize]...))            // header only
	f.Add([]byte("GET / HTTP/1.1\r\nHost: mostserver\r\n\r\n")) // wrong protocol
	huge := append([]byte(nil), ping...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff // 4 GiB length
	f.Add(huge)

	const maxPayload = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data), maxPayload)
		for {
			fr, err := d.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					!bytes.Contains([]byte(err.Error()), []byte("wire:")) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(fr.Payload) > maxPayload {
				t.Fatalf("decoder returned %d payload bytes, bound is %d", len(fr.Payload), maxPayload)
			}
			// Accepted frames must re-encode losslessly, version included.
			buf, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			fr2, err := NewDecoder(bytes.NewReader(buf), maxPayload).Next()
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if fr2.Op != fr.Op || fr2.ID != fr.ID || fr2.Version != fr.Version || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatal("re-encoded frame differs")
			}
			// Payload unmarshaling must not panic, whatever the bytes and
			// whichever grammar the version byte selects.
			switch fr.Op {
			case OpHello:
				var h HelloReq
				if checkPayload(t, fr, &h, &HelloReq{}) {
					// Negotiation must map any advertised maximum into the
					// implemented window.
					for _, serverMax := range []int{-1, 0, 1, 2, 1000} {
						v := NegotiateVersion(h.MaxVersion, serverMax)
						if v < MinProtocolVersion || v > MaxProtocolVersion {
							t.Fatalf("NegotiateVersion(%d, %d) = %d, outside [%d, %d]",
								h.MaxVersion, serverMax, v, MinProtocolVersion, MaxProtocolVersion)
						}
					}
				}
			case OpQuery:
				checkPayload(t, fr, &QueryReq{}, &QueryReq{})
			case OpUpdateBatch:
				checkPayload(t, fr, &UpdateBatchReq{}, &UpdateBatchReq{})
			case OpAdvance:
				checkPayload(t, fr, &AdvanceReq{}, &AdvanceReq{})
			case OpSubscribe:
				checkPayload(t, fr, &SubscribeReq{}, &SubscribeReq{})
			case OpNotify:
				checkPayload(t, fr, &Notify{}, &Notify{})
			case OpSubClosed:
				checkPayload(t, fr, &SubClosed{}, &SubClosed{})
			case OpZoneMap:
				checkPayload(t, fr, &ZoneMapResp{}, &ZoneMapResp{})
			case OpHandoff:
				checkPayload(t, fr, &HandoffReq{}, &HandoffReq{})
			}
		}
	})
}

// binaryBigEndianLength rewrites a hand-built frame's header length field
// to match its payload.
func binaryBigEndianLength(frame []byte) {
	n := uint32(len(frame) - HeaderSize)
	frame[12], frame[13], frame[14], frame[15] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
}

// checkPayload unmarshals a fuzzed frame into a and reports whether the
// payload was accepted; if it was, it checks decode∘encode idempotence:
// the re-encoded bytes b1 must decode (into b) and re-encode to exactly
// b1.  This holds bit-for-bit even for NaN floats, since the encoding
// carries IEEE-754 bits verbatim.
func checkPayload(t *testing.T, fr Frame, a, b binaryPayload) bool {
	t.Helper()
	if err := Unmarshal(fr, a); err != nil {
		return false
	}
	b1 := appendPayload(nil, a, fr.Version)
	if err := Unmarshal(Frame{Op: fr.Op, Version: fr.Version, Payload: b1}, b); err != nil {
		if len(b1) > 0 {
			t.Fatalf("canonical re-encode of accepted %s payload does not decode: %v", fr.Op, err)
		}
		return true
	}
	b2 := appendPayload(nil, b, fr.Version)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s payload not canonical after one decode/encode cycle:\n b1: %x\n b2: %x", fr.Op, b1, b2)
	}
	return true
}
