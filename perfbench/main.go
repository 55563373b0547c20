// Command perfbench is the repository's benchmark.  It generates one of
// three seeded city workloads (internal/city), serves it from an
// in-process server over loopback TCP, drives it from one process in a
// closed loop with a fixed amount of work, checks every output against an
// in-process replica, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) with their units.  The last line of
// standard output is the JSON result.
//
//	go run . --workload cq_city --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ingest_durable, cq_city or query_mix")
	seed := fs.Int64("seed", 1, "workload seed: the city, its motion schedule and the query catalog derive from it")
	seconds := fs.Int("seconds", 10, "nominal length of the measured phase; fixes the number of updates")
	trace := fs.Int("trace", 0, "1 runs the traced phase and the layer replays and prints per-layer metrics")
	scale := fs.Float64("scale", 1, "shrinks the city and the work (below 1; the benchmark's test uses it)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data files and the span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads(*seed)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest_durable|cq_city|query_mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	w.scaled(*scale)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := newReport()
	var err error
	if *trace == 1 {
		err = runTraced(w, *seconds, *out, *seed, r)
	} else {
		err = runE2E(w, *seconds, *out, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	res := r.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, its attempt/failure tally and the
// human-readable lines printed before the JSON result.
type report struct {
	metrics       map[string]metric
	lines         []string
	tries, failed int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) count(tries, failed int) {
	r.tries += tries
	r.failed += failed
}

func (r *report) result() result {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		r.note("%-36s %14.6g %s", n, m.Value, m.Unit)
	}
	return result{Correct: r.failed == 0 && r.tries > 0, Attempted: r.tries, Failed: r.failed, Metrics: r.metrics}
}

// latency sets name_p50_ms from the per-window medians of a measured
// phase (see windowQuantile; windows is nil for the read probe, whose
// samples are one group) and notes p90 and p99 with the sample count.
// Only the median is a gated metric: on ingest_durable the p90 falls among
// the batches a collection or a checkpoint slows, and it moved by a third
// of its median between runs of the same code.
func (r *report) latency(name string, ls *loadStats, xs []float64, end func(window) int) {
	r.set(name+"_p50_ms", ls.windowQuantile(xs, end, 0.5), "ms")
	r.note("%s latency: %d samples, p90 %.4f ms, p99 %.4f ms (not gated)",
		name, len(xs), ls.windowQuantile(xs, end, 0.9), quantile(xs, 0.99))
}

// plan sizes a run: warm-up plus phases of measured updates each, and the
// step indexes where each phase starts.
func plan(e *env, seconds, phases int) ([]step, []int) {
	measured := max(e.w.batchOps, int(float64(seconds)*e.w.opsPerSec))
	warm := max(4*e.w.batchOps, measured/10)
	steps := buildSteps(e.c, e.w, warm+phases*measured, len(e.qtpls))
	var bounds []int
	ops, next := 0, warm
	for i, st := range steps {
		if ops >= next && len(bounds) < phases {
			bounds = append(bounds, i)
			next += measured
		}
		ops += len(st.ops) - abs(st.flip)
	}
	for len(bounds) < phases {
		bounds = append(bounds, len(steps))
	}
	return steps, append(bounds, len(steps))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// load runs the warm-up and then each phase in turn with the sentinel
// watcher running; tracers[k] (nil for untraced) records phase k.  A
// workload with a read probe runs it last, and its query latencies stand
// for the last phase's.
func load(e *env, steps []step, bounds []int, tracers []*tracer, r *report) ([]*loadStats, []queryAnswer, error) {
	e.acked = 0
	arrivals, stop := e.startWatch()
	defer stop()
	var seq uint64
	warm, err := e.drive(steps, 0, bounds[0], arrivals, &seq, nil)
	if warm != nil {
		r.count(warm.tries, warm.failed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	answers := warm.answers
	e.acked += warm.ops
	var phases []*loadStats
	for k := 0; k+1 < len(bounds); k++ {
		runtime.GC()
		ls, err := e.drive(steps, bounds[k], bounds[k+1], arrivals, &seq, tracers[k])
		if ls != nil {
			r.count(ls.tries, ls.failed)
		}
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, ls)
		e.acked += ls.ops
		answers = append(answers, ls.answers...)
	}
	if e.w.reads > 0 {
		rp, err := e.readProbe(e.w.reads, len(steps)-1, tracers[len(tracers)-1])
		if rp != nil {
			r.count(rp.tries, rp.failed)
		}
		if err != nil {
			return nil, nil, err
		}
		answers = append(answers, rp.answers...)
		phases[len(phases)-1].qLat = rp.qLat
	}
	return phases, answers, nil
}

// check runs the output checks that need the live server: every kept
// query answer and every subscription against the replica.  On a durable
// workload it keeps the replica's snapshot for the recovery check.
func check(e *env, steps []step, answers []queryAnswer, r *report) error {
	n, bad, db, err := checkQueries(e, steps, answers)
	if err != nil {
		return err
	}
	r.count(n, bad)
	n, bad, err = checkCQs(e, db)
	if err != nil {
		return err
	}
	r.count(n, bad)
	if e.w.durable {
		e.want, err = db.SnapshotJSON()
	}
	return err
}

// durability finishes the durable side of a run: restarts of the served
// server on ingest_durable, the durability probe elsewhere.
func durability(e *env, ingest *loadStats, explicit int, r *report) (*durableResult, error) {
	var dr *durableResult
	if e.w.durable {
		dr = &durableResult{
			writePerUpdate: float64(ingest.cost.WriteBytes) / float64(ingest.ops),
			checkpoints:    e.reg.Counter("server.checkpoints").Value(),
			updates:        e.acked,
		}
		e.closeClients()
		srv := e.srv
		e.srv = nil
		if err := finishDurable(srv, e, e.dir, e.want, dr, explicit); err != nil {
			return nil, err
		}
	} else {
		e.teardown()
		var err error
		if dr, err = durableProbe(e, e.dir, explicit); err != nil {
			return nil, err
		}
	}
	r.count(dr.tries, dr.failed)
	return dr, nil
}

// runE2E is the untraced run: repeated set-up, warm-up, one measured
// phase, checks, restarts.
func runE2E(w *workload, seconds int, out string, r *report) error {
	e, setups, err := setupRepeated(w, dataDir(out, w.name))
	if err != nil {
		return err
	}
	defer e.teardown()
	steps, bounds := plan(e, seconds, 1)
	phases, answers, err := load(e, steps, bounds, []*tracer{nil}, r)
	if err != nil {
		return err
	}
	ls := phases[0]
	heap := liveHeapMB()
	if err := check(e, steps, answers, r); err != nil {
		return err
	}
	dr, err := durability(e, ls, 0, r)
	if err != nil {
		return err
	}

	r.note("workload %s: %d objects, %d subscriptions, %d measured updates in %d batches, %.2fs",
		w.name, e.c.Objects()+1, len(e.subs)+1, ls.ops, bounds[1]-bounds[0], ls.cost.Wall.Seconds())
	r.set("setup_s", median(setups), "s")
	rate, cpu := ls.medianRates()
	r.set("updates_per_s", rate, "1/s")
	r.latency("update", ls, ls.updLat, func(w window) int { return w.upd })
	r.latency("notify", ls, ls.nLat, func(w window) int { return w.notify })
	if w.reads > 0 {
		r.latency("query", &loadStats{}, ls.qLat, nil)
	} else {
		r.latency("query", ls, ls.qLat, func(w window) int { return w.query })
	}
	r.set("cpu_us_per_update", cpu, "us")
	r.set("recovery_s", median(dr.recoveries), "s")
	r.set("storage_bytes_per_update", dr.writePerUpdate, "B")
	r.set("live_heap_mb", heap, "MB")
	r.set("ok_share", float64(r.tries-r.failed)/float64(max(1, r.tries)), "share")
	return nil
}
