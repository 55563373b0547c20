// mostbench regenerates every experiment table (E1..E14): the paper's
// quantitative claims, measured on this implementation.  See DESIGN.md for
// the experiment index and EXPERIMENTS.md for claim-versus-measured.
//
// Usage:
//
//	mostbench [-quick] [-only E3,E7] [-out dir] [-delta] [-faults] [-chaos] [-obs] [-server] [-city] [-cluster] [-http :6060]
//
// With -delta it instead runs the continuous-query maintenance benchmark
// (per-object delta patches vs full reevaluation per update) and writes
// BENCH_delta.json.  With -faults it runs the fault-tolerance sweep (loss
// × partition × crashes; legacy vs reliable delivery, staleness marking,
// WAL recovery) and writes BENCH_faults.json.
// With -chaos it runs the live chaos scenarios (internal/chaos: real
// durable server over TCP under kill/restart, partitions and churn) and
// records recovery-time and failover-latency percentiles under the
// "chaos" key of BENCH_faults.json, preserving any simulated sweep
// already in the file.
// With -obs it measures the observability instrumentation overhead on an
// instantaneous fleet query and writes BENCH_obs.json, including a full
// metrics snapshot from an instrumented three-query-type scenario.  With -server
// it benchmarks the TCP network service (concurrent pipelining clients
// committing update batches over loopback) and writes BENCH_server.json.
// With -city it runs the city-scale application benchmark (internal/city:
// a seeded road-network city served over loopback TCP to concurrent CQ
// subscribers, updaters and queriers) and writes the SLO report to
// BENCH_city.json.  With -cluster it replays the same city against a
// single node and a 3-node spatially partitioned cluster (internal/cluster:
// zone routing, object handoff, scatter-gather queries and merged CQs) and
// writes the throughput comparison to BENCH_cluster.json.
//
// -out dir redirects every BENCH_*.json to dir (default: the working
// directory); the absolute path of each written file is printed.
//
// -http addr serves the observability endpoints for the duration of the
// run: /obs (metrics + trace snapshot), /debug/vars (expvar), and
// /debug/pprof/* (net/http/pprof profiling).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/mostdb/most/internal/experiments"
	"github.com/mostdb/most/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the mode smoke tests can
// drive every flag in-process.  It returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink sweeps for a fast run")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. E3,E7); empty runs all")
	outDir := fs.String("out", "", "directory for BENCH_*.json files (default: working directory)")
	deltaBench := fs.Bool("delta", false, "benchmark delta maintenance vs full reevaluation and write BENCH_delta.json")
	faultsSweep := fs.Bool("faults", false, "run the fault-tolerance sweep and write BENCH_faults.json")
	chaosBench := fs.Bool("chaos", false, "run the live chaos scenarios and record recovery/failover latency under the chaos key of BENCH_faults.json")
	obsBench := fs.Bool("obs", false, "measure observability overhead and write BENCH_obs.json")
	serverBench := fs.Bool("server", false, "benchmark the TCP network service and write BENCH_server.json")
	cityBench := fs.Bool("city", false, "run the city-scale application benchmark and write BENCH_city.json")
	clusterBench := fs.Bool("cluster", false, "benchmark the spatially partitioned cluster vs a single node and write BENCH_cluster.json")
	cityGate := fs.String("gate", "", "with -city/-cluster: baseline report to gate against (fail if updates/sec drops below 75% of it)")
	httpAddr := fs.String("http", "", "serve /obs, /debug/vars and /debug/pprof on this address (e.g. :6060)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "mostbench: %v\n", err)
		return 1
	}
	// writeReport marshals a report into the output directory and prints
	// the absolute path, so a sweep's artifacts are always locatable.
	writeReport := func(name string, rep any) error {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if abs, err := filepath.Abs(path); err == nil {
			path = abs
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}

	if *httpAddr != "" {
		reg := obs.New()
		obs.Serve(*httpAddr, "mostbench", reg)
		experiments.Instrument(reg)
		fmt.Fprintf(stderr, "mostbench: observability endpoints on http://%s/obs and /debug/pprof/\n", *httpAddr)
	}

	switch {
	case *clusterBench:
		rep, err := experiments.ClusterBench(*quick)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, rep.Table().Render())
		if err := writeReport("BENCH_cluster.json", rep); err != nil {
			return fail(err)
		}
		if *cityGate != "" {
			if err := gateThroughput(*cityGate, rep.Quick, rep.UpdatesPerSec, &rep.Speedup, stdout); err != nil {
				return fail(err)
			}
		}
		return 0

	case *cityBench:
		rep, err := experiments.CityBench(*quick)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, rep.Table().Render())
		if err := writeReport("BENCH_city.json", rep); err != nil {
			return fail(err)
		}
		if *cityGate != "" {
			if err := gateThroughput(*cityGate, rep.Quick, rep.UpdatesPerSec, nil, stdout); err != nil {
				return fail(err)
			}
		}
		return 0

	case *serverBench:
		rep := experiments.ServerBench(*quick)
		fmt.Fprintln(stdout, rep.Table().Render())
		if err := writeReport("BENCH_server.json", rep); err != nil {
			return fail(err)
		}
		return 0

	case *obsBench:
		rep := experiments.ObsBench(*quick)
		fmt.Fprintln(stdout, rep.Table().Render())
		if err := writeReport("BENCH_obs.json", rep); err != nil {
			return fail(err)
		}
		return 0

	case *faultsSweep || *chaosBench:
		// The two fault benchmarks share BENCH_faults.json: -faults owns
		// the simulated sweep, -chaos owns the live-injection "chaos" key.
		// Running one preserves the other's half of an existing file.
		rep := &experiments.FaultsReport{}
		if prior, err := os.ReadFile(filepath.Join(*outDir, "BENCH_faults.json")); err == nil {
			_ = json.Unmarshal(prior, rep)
		}
		if *faultsSweep {
			chaos := rep.Chaos
			rep = experiments.FaultsBench(*quick)
			rep.Chaos = chaos
			fmt.Fprintln(stdout, rep.Table().Render())
		}
		if *chaosBench {
			chaos, err := experiments.ChaosBench(*quick)
			if err != nil {
				return fail(fmt.Errorf("chaos scenario failed: %w", err))
			}
			rep.Chaos = chaos
			fmt.Fprintln(stdout, chaos.Table().Render())
		}
		if err := writeReport("BENCH_faults.json", rep); err != nil {
			return fail(err)
		}
		return 0

	case *deltaBench:
		rep := experiments.DeltaBench(*quick)
		fmt.Fprintln(stdout, rep.Table().Render())
		if err := writeReport("BENCH_delta.json", rep); err != nil {
			return fail(err)
		}
		return 0
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, tbl := range experiments.Run(want, *quick) {
		fmt.Fprintln(stdout, tbl.Render())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "mostbench: no experiment matches %q\n", *only)
		return 1
	}
	return 0
}

// gateThroughput compares a fresh run's sustained update throughput
// against the checked-in baseline report at baselinePath (the city or the
// cluster report: both carry quick and updates_per_sec) and fails when it
// drops below 75% of the baseline — a CI tripwire for regressions on the
// update and maintenance hot path.  A faster run quietly passes; refresh
// the baseline when the ceiling moves up for real.  speedup, non-nil for
// the cluster benchmark, is its aggregate over its own single-node phase
// and must stay at least 1: a slower cluster means routing or handoff
// overhead ate the parallelism, so partitioning no longer pays.
func gateThroughput(baselinePath string, quick bool, updatesPerSec float64, speedup *float64, stdout io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gate: read baseline: %w", err)
	}
	var base struct {
		Quick         bool    `json:"quick"`
		UpdatesPerSec float64 `json:"updates_per_sec"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("gate: parse baseline %s: %w", baselinePath, err)
	}
	if base.UpdatesPerSec <= 0 {
		return fmt.Errorf("gate: baseline %s has no updates_per_sec", baselinePath)
	}
	if base.Quick != quick {
		return fmt.Errorf("gate: baseline quick=%v but run quick=%v — modes are not comparable", base.Quick, quick)
	}
	const floor = 0.75
	ratio := updatesPerSec / base.UpdatesPerSec
	fmt.Fprintf(stdout, "gate: %.0f updates/s vs baseline %.0f (%.2fx, floor %.2fx)\n",
		updatesPerSec, base.UpdatesPerSec, ratio, floor)
	if ratio < floor {
		return fmt.Errorf("gate: throughput regressed to %.2fx of baseline (floor %.2fx)", ratio, floor)
	}
	if speedup == nil {
		return nil
	}
	fmt.Fprintf(stdout, "gate: speedup over single node %.2fx\n", *speedup)
	if *speedup < 1 {
		return fmt.Errorf("gate: cluster is %.2fx of single-node throughput — partitioning no longer pays for itself", *speedup)
	}
	return nil
}
