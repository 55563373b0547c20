package wire

import (
	"bytes"
	"testing"
)

// TestIngestZeroAlloc is the allocation-regression guard for the v2 ingest
// hot path: frame decode with a reused payload buffer (Decoder.NextReuse),
// payload decode into a reused struct with interned object IDs
// (UnmarshalInterned), pooled response encode (EncodePooled/Recycle), and
// response framing into a reused write buffer (AppendFrame) — the exact
// per-request cycle of the server's update-batch handler.  Steady state
// must be 0 allocs/op; any regression here reappears as GC pressure at
// ingest rates of hundreds of thousands of updates per second.
func TestIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	// One realistic update batch: 16 motion updates over a recurring ID set.
	var req UpdateBatchReq
	for i := 0; i < 16; i++ {
		req.Ops = append(req.Ops, UpdateOp{
			Op: OpSetMotion, ID: "car-" + string(rune('a'+i)), VX: float64(i), VY: -float64(i),
		})
	}
	f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 42, &req)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(stream)
	dec := NewDecoder(rd, 1<<20)
	dec.SetVersion(ProtocolV2)
	intern := Interner{}
	var decoded UpdateBatchReq
	var resp UpdateBatchResp
	wbuf := make([]byte, 0, 64)

	cycle := func() {
		rd.Reset(stream)
		dec.Reset(rd)
		fr, err := dec.NextReuse()
		if err != nil {
			t.Fatal(err)
		}
		decoded.Ops = decoded.Ops[:0]
		if err := UnmarshalInterned(fr, &decoded, intern); err != nil {
			t.Fatal(err)
		}
		if len(decoded.Ops) != len(req.Ops) {
			t.Fatalf("decoded %d ops, want %d", len(decoded.Ops), len(req.Ops))
		}
		resp = UpdateBatchResp{Applied: len(decoded.Ops), Now: 7, Version: 99}
		out, err := EncodePooled(ProtocolV2, OpResult, fr.ID, &resp)
		if err != nil {
			t.Fatal(err)
		}
		wbuf, err = AppendFrame(wbuf[:0], out)
		if err != nil {
			t.Fatal(err)
		}
		Recycle(out)
	}
	cycle() // warm-up: grows the reused buffers and seeds the interner

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("ingest hot path allocates %.1f times per request, want 0", allocs)
	}
}

// BenchmarkIngestV2 measures the full per-request decode+encode cycle the
// server runs per update batch, for the ARCHITECTURE.md profile table.
func BenchmarkIngestV2(b *testing.B) {
	benchmarkIngest(b, ProtocolV2)
}

func benchmarkIngest(b *testing.B, version uint8) {
	var req UpdateBatchReq
	for i := 0; i < 16; i++ {
		req.Ops = append(req.Ops, UpdateOp{
			Op: OpSetMotion, ID: "car-" + string(rune('a'+i)), VX: float64(i), VY: -float64(i),
		})
	}
	f, err := EncodeFrame(version, OpUpdateBatch, 42, &req)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := AppendFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(stream)
	dec := NewDecoder(rd, 1<<20)
	dec.SetVersion(version)
	intern := Interner{}
	var decoded UpdateBatchReq
	var resp UpdateBatchResp
	wbuf := make([]byte, 0, 64)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		dec.Reset(rd)
		fr, err := dec.NextReuse()
		if err != nil {
			b.Fatal(err)
		}
		decoded.Ops = decoded.Ops[:0]
		if err := UnmarshalInterned(fr, &decoded, intern); err != nil {
			b.Fatal(err)
		}
		resp = UpdateBatchResp{Applied: len(decoded.Ops), Now: 7, Version: 99}
		out, err := EncodePooled(version, OpResult, fr.ID, &resp)
		if err != nil {
			b.Fatal(err)
		}
		wbuf, err = AppendFrame(wbuf[:0], out)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(out)
	}
}
