package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the traced run: one set-up with spans, an untraced phase
// and then a traced phase of the same length (their rate difference is
// the tracing overhead), the same output checks, the durable restarts
// with timed explicit checkpoints, and the layer replays of the traced
// phase's batches.
func runTraced(w *workload, seconds int, out string, seed int64, r *report) error {
	tr := &tracer{}
	e, err := setup(w, dataDir(out, w.name), tr)
	if err != nil {
		return err
	}
	defer e.teardown()
	steps, bounds := plan(e, seconds, 2)
	c0 := counters(e)
	phases, answers, err := load(e, steps, bounds, []*tracer{nil, tr}, r)
	if err != nil {
		return err
	}
	c1 := counters(e)
	untraced, traced := phases[0], phases[1]
	ops := float64(untraced.ops + traced.ops)
	if err := check(e, steps, answers, r); err != nil {
		return err
	}
	from, to := bounds[1], bounds[2]

	rate := func(ls *loadStats) float64 { return float64(ls.ops) / ls.cost.Wall.Seconds() }
	r.set("trace.overhead_share", (rate(untraced)-rate(traced))/rate(untraced), "share")
	r.set("runtime.alloc_bytes_per_update", float64(untraced.cost.AllocBytes)/float64(untraced.ops), "B")
	r.set("runtime.gc_cycles_per_kupdate", 1000*float64(untraced.cost.GCs)/float64(untraced.ops), "count")

	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	share := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	r.set("server.notifies_per_update", d("server.notifies")/ops, "count")
	r.set("server.coalesced_share", share(d("server.notifies_coalesced"), d("server.notifies")), "share")
	r.set("server.conv_hit_share", share(d("server.conv_hits"), d("server.conv_misses")), "share")
	r.set("query.shared_plans", float64(c1["query.continuous.shared_plans"]), "count")
	r.set("query.delta_per_update", d("query.continuous.delta")/ops, "count")
	r.set("query.full_per_update", d("query.continuous.full")/ops, "count")
	r.set("query.fallback_per_update", d("query.continuous.fallback")/ops, "count")
	maintained := d("query.continuous.delta") + d("query.continuous.full") + d("query.continuous.fallback")
	r.set("query.skipped_share", share(d("query.continuous.skipped_irrelevant"), maintained), "share")
	r.set("query.suppressed_share", share(d("query.continuous.suppressed"), maintained-d("query.continuous.suppressed")), "share")

	spanMedian := func(name string, unit time.Duration) float64 {
		return median(tr.durations(name)) / float64(unit)
	}
	r.set("client.update_rtt_us", spanMedian("client.update_batch", time.Microsecond), "us")
	r.set("client.query_rtt_ms", spanMedian("client.query", time.Millisecond), "ms")
	var sub float64
	for _, x := range tr.durations("client.subscribe") {
		sub += x
	}
	r.set("client.subscribe_ms", sub/float64(time.Millisecond), "ms")
	r.set("city.generate_s", spanMedian("city.generate", time.Second), "s")
	r.set("city.database_s", spanMedian("city.database", time.Second), "s")

	dr, err := durability(e, traced, 3, r)
	if err != nil {
		return err
	}
	r.set("server.checkpoint_s", median(dr.checkpointS), "s")
	r.set("server.checkpoints_per_kupdate", 1000*float64(dr.checkpoints)/float64(dr.updates), "count")

	decode, err := layerWire(steps, from, to, tr, r)
	if err != nil {
		return err
	}
	apply, err := layerMost(e, steps, from, to, tr, r)
	if err != nil {
		return err
	}
	// A batch's server self time: its round trip minus the in-process
	// decode and apply of the same batch, joined by request id.
	var self []float64
	for _, s := range tr.spans {
		if s.Name == "client.update_batch" && s.Req >= from && s.Req < to {
			self = append(self, float64(s.End.Sub(s.Start)-decode[s.Req]-apply[s.Req])/1e3)
		}
	}
	r.set("server.self_us_per_batch", median(self), "us")
	if err := layerWAL(e, steps, from, to, apply, filepath.Join(out, "wal-"+w.name), tr, r); err != nil {
		return err
	}
	if err := layerQuery(e, steps, from, to, apply, tr, r); err != nil {
		return err
	}
	// Storage cross-check: what the process wrote per update against what
	// the most layer alone writes (WAL records plus its share of
	// checkpoint images at the served cadence).
	ckptPerUpdate := float64(dr.checkpoints) / float64(dr.updates)
	predicted := r.metrics["most.wal_bytes_per_update"].Value + r.metrics["most.checkpoint_bytes"].Value*ckptPerUpdate
	r.set("storage.write_bytes_per_update", dr.writePerUpdate, "B")
	r.set("storage.explained_share", predicted/dr.writePerUpdate, "share")

	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	lines, err := tr.write(path)
	if err != nil {
		return err
	}
	r.lines = append(r.lines, lines...)
	r.note("spans written to %s", path)
	return nil
}

var counterNames = []string{
	"server.notifies", "server.notifies_coalesced", "server.conv_hits", "server.conv_misses",
	"query.continuous.shared_plans", "query.continuous.delta", "query.continuous.full",
	"query.continuous.fallback", "query.continuous.skipped_irrelevant", "query.continuous.suppressed",
}

func counters(e *env) map[string]int64 {
	out := map[string]int64{}
	for _, n := range counterNames {
		out[n] = e.reg.Counter(n).Value()
	}
	return out
}
