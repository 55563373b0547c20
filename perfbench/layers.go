package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// The traced run's layer replays: the traced phase's own batches, replayed
// in-process through each layer's public functions, each call inside a
// span whose request id is the batch index, so a batch's wire decode and
// most apply line up with its client round trip.

// maintainSampleOps caps the updates replayed with the workload's CQs
// registered: on cq_city one update costs milliseconds of maintenance.
const maintainSampleOps = 400

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func mallocs() (uint64, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// layerWire encodes and decodes the traced phase's batches with the v2
// codec the server negotiates by default.
func layerWire(steps []step, from, to int, tr *tracer, r *report) (map[int]time.Duration, error) {
	var stream []byte
	var encNs time.Duration
	for i := from; i < to; i++ {
		sp := tr.begin("wire.encode", i, -1)
		var f wire.Frame
		var err error
		encNs += timed(func() {
			f, err = wire.EncodeFrame(wire.ProtocolV2, wire.OpUpdateBatch, uint64(i), &wire.UpdateBatchReq{Ops: steps[i].ops})
		})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encode batch %d: %w", i, err)
		}
		if stream, err = wire.AppendFrame(stream, f); err != nil {
			return nil, fmt.Errorf("frame batch %d: %w", i, err)
		}
	}
	ops := cityOps(steps[from:to])
	frames := to - from

	// Decode the way the server's session does: one reused frame buffer and
	// one reused request whose op slots are cleared before each batch.
	decode := func(per []time.Duration, spans bool) error {
		dec := wire.NewDecoder(bytes.NewReader(stream), wire.DefaultMaxPayload)
		var req wire.UpdateBatchReq
		for i := from; i < to; i++ {
			sp := -1
			if spans {
				sp = tr.begin("wire.decode", i, -1)
			}
			t0 := time.Now()
			f, err := dec.NextReuse()
			if err == nil {
				clear(req.Ops[:cap(req.Ops)])
				req.Ops = req.Ops[:0]
				err = wire.Unmarshal(f, &req)
			}
			per[i-from] = time.Since(t0)
			if spans {
				tr.end(sp)
			}
			if err != nil {
				return fmt.Errorf("decode batch %d: %w", i, err)
			}
		}
		return nil
	}
	per := make([]time.Duration, frames)
	m0, _ := mallocs()
	if err := decode(per, false); err != nil {
		return nil, err
	}
	m1, _ := mallocs()
	if err := decode(per, true); err != nil {
		return nil, err
	}
	var decNs time.Duration
	out := map[int]time.Duration{}
	for k, d := range per {
		decNs += d
		out[from+k] = d
	}
	r.set("wire.encode_ns_per_op", float64(encNs.Nanoseconds())/float64(ops), "ns")
	r.set("wire.decode_ns_per_op", float64(decNs.Nanoseconds())/float64(ops), "ns")
	r.set("wire.frame_bytes_per_op", float64(len(stream))/float64(ops), "B")
	r.set("wire.allocs_per_frame", float64(m1-m0)/float64(frames), "count")
	return out, nil
}

// layerMost replays the traced phase on a bare replica (no WAL, no
// engine), then times snapshots, instantaneous queries and parses on it.
// It returns each batch's apply time.
func layerMost(e *env, steps []step, from, to int, tr *tracer, r *report) (map[int]time.Duration, error) {
	db, err := replica(e.c, steps[:from])
	if err != nil {
		return nil, err
	}
	apply := map[int]time.Duration{}
	var total time.Duration
	for i := from; i < to; i++ {
		sp := tr.begin("most.apply", i, -1)
		t0 := time.Now()
		err := applyStep(db, steps[i])
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		apply[i] = d
		total += d
	}
	r.set("most.set_motion_us", float64(total.Microseconds())/float64(cityOps(steps[from:to])), "us")

	var snaps []float64
	for k := 0; k < 5; k++ {
		sp := tr.begin("most.snapshot", -1, -1)
		d := timed(func() { db.Snapshot() })
		tr.end(sp)
		snaps = append(snaps, float64(d.Microseconds()))
	}
	r.set("most.snapshot_us", median(snaps), "us")

	eng := query.NewEngine(db)
	lat := map[string][]float64{}
	rows := map[string][]float64{}
	for _, tpl := range instantSample(e.inst) {
		sp := tr.begin("query.instant."+tpl.Family, -1, -1)
		var res []query.Row
		d := timed(func() { res, err = eng.Query(tpl.Src, e.opts) })
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replica query %s: %w", tpl.Name, err)
		}
		lat[tpl.Family] = append(lat[tpl.Family], ms(d))
		rows[tpl.Family] = append(rows[tpl.Family], float64(len(res)))
	}
	for _, fam := range allFamilies {
		r.set("query.instant_ms."+fam, median(lat[fam]), "ms")
		r.set("query.answer_rows."+fam, median(rows[fam]), "count")
	}

	const parses = 50
	n := 0
	d := timed(func() {
		for k := 0; k < parses; k++ {
			for _, tpl := range e.inst {
				if _, err = ftl.Parse(tpl.Src); err != nil {
					return
				}
				n++
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	r.set("ftl.parse_us", float64(d.Nanoseconds())/1e3/float64(n), "us")
	return apply, nil
}

// instantSample picks up to instantPerFamily templates of each family,
// evenly spread over the city: one query on the 100k city takes a quarter
// of a second, so all of them would take minutes.
func instantSample(tpls []city.Template) []city.Template {
	byFam := map[string][]city.Template{}
	for _, tpl := range tpls {
		byFam[tpl.Family] = append(byFam[tpl.Family], tpl)
	}
	var out []city.Template
	for _, fam := range allFamilies {
		ts := byFam[fam]
		n := min(instantPerFamily, len(ts))
		for k := 0; k < n; k++ {
			out = append(out, ts[k*len(ts)/n])
		}
	}
	return out
}

const instantPerFamily = 4

// layerWAL replays the traced phase on a replica with a file WAL attached
// (OpenWAL + AttachWAL, checkpointed first so the log holds only the
// phase), then times recovery from that snapshot plus log, and a
// checkpoint of the result.
func layerWAL(e *env, steps []step, from, to int, bare map[int]time.Duration, dir string, tr *tracer, r *report) error {
	db, err := replica(e.c, steps[:from])
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walPath, snapPath := filepath.Join(dir, "wal.log"), filepath.Join(dir, "checkpoint.json")
	w, err := most.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := db.AttachWAL(w); err != nil {
		return err
	}
	if err := db.Checkpoint(snapPath); err != nil {
		return err
	}
	var withWAL, without time.Duration
	for i := from; i < to; i++ {
		sp := tr.begin("most.apply_wal", i, -1)
		d := timed(func() { err = applyStep(db, steps[i]) })
		tr.end(sp)
		if err != nil {
			return err
		}
		withWAL += d
		without += bare[i]
	}
	ops := float64(cityOps(steps[from:to]))
	st, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	r.set("most.wal_append_us_per_update", float64((withWAL-without).Microseconds())/ops, "us")
	r.set("most.wal_bytes_per_update", float64(st.Size())/ops, "B")

	sp := tr.begin("most.recover", -1, -1)
	d := timed(func() { _, _, err = most.RecoverFiles(snapPath, walPath) })
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.set("most.recover_s", d.Seconds(), "s")
	runtime.GC()
	sp = tr.begin("most.checkpoint", -1, -1)
	d = timed(func() { err = db.Checkpoint(snapPath) })
	tr.end(sp)
	if err != nil {
		return err
	}
	if st, err = os.Stat(snapPath); err != nil {
		return err
	}
	r.set("most.checkpoint_s", d.Seconds(), "s")
	r.set("most.checkpoint_bytes", float64(st.Size()), "B")
	return nil
}

// layerQuery registers the workload's continuous queries on a replica at
// the traced phase's start, converts their answers to wire rows, and
// replays the first maintainSampleOps updates of the phase with them
// registered; the difference to the bare replay of the same batches is
// the maintenance cost.
func layerQuery(e *env, steps []step, from, to int, bare map[int]time.Duration, tr *tracer, r *report) error {
	db, err := replica(e.c, steps[:from])
	if err != nil {
		return err
	}
	eng := query.NewEngine(db)
	seen := map[string]bool{}
	var reg, conv []float64
	var scratch []wire.AnswerRow
	for _, src := range append([]string{sentinelSrc()}, e.subSrc...) {
		if seen[src] {
			continue
		}
		seen[src] = true
		q, err := ftl.Parse(src)
		if err != nil {
			return err
		}
		sp := tr.begin("query.register", -1, -1)
		var cq *query.Continuous
		d := timed(func() { cq, err = eng.Continuous(q, e.opts) })
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("register: %w", err)
		}
		defer cq.Cancel()
		reg = append(reg, ms(d))
		rel, err := cq.Answer()
		if err != nil {
			return err
		}
		sp = tr.begin("wire.answer_convert", -1, -1)
		d = timed(func() { scratch = wire.AppendRelation(scratch[:0], rel) })
		tr.end(sp)
		conv = append(conv, float64(d.Nanoseconds())/1e3)
	}
	r.set("query.register_ms", median(reg), "ms")
	r.set("wire.answer_convert_us", median(conv), "us")

	var with, without time.Duration
	ops := 0
	runtime.GC()
	_, a0 := mallocs()
	for i := from; i < to && ops < maintainSampleOps; i++ {
		sp := tr.begin("query.apply_maintained", i, -1)
		d := timed(func() { err = applyStep(db, steps[i]) })
		tr.end(sp)
		if err != nil {
			return err
		}
		with += d
		without += bare[i]
		ops += len(steps[i].ops)
	}
	_, a1 := mallocs()
	r.set("query.maintain_us_per_update", float64((with-without).Microseconds())/float64(ops), "us")
	r.set("query.alloc_bytes_per_update", float64(a1-a0)/float64(ops), "B")
	return nil
}
