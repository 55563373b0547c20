# Development gates.  `make check` is the tier-1 verification the CI and
# every PR must keep green; `make race` runs the concurrency regression
# tests under the race detector.

GO ?= go

.PHONY: check fmt vet build test race bench lines delta faults chaos chaosbench fuzzwal fuzzckpt fuzzftl fuzzwire cover obs server city cityquick citycheck racequery racestream cluster clusterquick perfbench-smoke

# Checked-in coverage floor for `make cover`: total statement coverage under
# the race detector must not fall below this.
COVER_FLOOR := 78.0

check: fmt vet build test citycheck racequery racestream cityquick cluster clusterquick perfbench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Non-test Go line count of the program (perfbench excluded), the size
# figure simplicity changes report.
lines:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# Delta-maintenance vs full-reevaluation sweep; writes BENCH_delta.json.
delta:
	$(GO) run ./cmd/mostbench -delta

# Fault-tolerance sweep (loss x partition x crashes; legacy vs reliable
# delivery, staleness marking, WAL recovery); writes BENCH_faults.json.
faults:
	$(GO) run ./cmd/mostbench -faults -quick

# End-to-end chaos suite, always under the race detector: scripted
# kill/restart, partition and churn scenarios against a live durable
# server, asserting recovered state bit-identical to a differential
# oracle and gap-free notification streams across every fault.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/

# Live chaos benchmark: recovery-time and failover-latency percentiles,
# written under the "chaos" key of BENCH_faults.json.
chaosbench:
	$(GO) run ./cmd/mostbench -chaos

# Fuzz the WAL replay path: corrupted/truncated logs must fail safe with a
# partial-recovery report, never a panic.
fuzzwal:
	$(GO) test ./internal/most -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s

# Fuzz the checkpoint loader: hostile images must fail with an error, never
# a panic or an allocation beyond a fixed multiple of their length, and
# loading must be deterministic.
fuzzckpt:
	$(GO) test ./internal/most -run='^$$' -fuzz=FuzzCheckpointLoad -fuzztime=10s

# Fuzz the FTL parse-then-evaluate pipeline: accepted inputs must evaluate
# without panics, keep satisfaction sets normalized and windowed, survive
# the Normalize rewrite unchanged, and partition the window against NOT f.
fuzzftl:
	$(GO) test ./internal/ftl/eval -run='^$$' -fuzz=FuzzFTLEval -fuzztime=10s

# Fuzz the wire-frame decoder: hostile bytes must never panic, never
# over-allocate past the payload bound, and accepted frames must round-trip.
fuzzwire:
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzWireDecode -fuzztime=10s

# Network-service throughput sweep (concurrent pipelining clients over
# loopback TCP); writes BENCH_server.json.
server:
	$(GO) run ./cmd/mostbench -server -quick

# Race-mode coverage with a checked-in floor: fails if total statement
# coverage drops below COVER_FLOOR.
cover:
	$(GO) test -race -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v got="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit !(got+0 >= floor+0) }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Observability-overhead benchmark; writes BENCH_obs.json.
obs:
	$(GO) run ./cmd/mostbench -obs

# City-scale application benchmark (E14): a seeded road-network city served
# over loopback TCP — ≥100k objects, ≥1k continuous-query subscribers,
# concurrent updaters and queriers; writes the SLO report to BENCH_city.json.
# Takes a few minutes; use `make cityquick` while iterating.
city:
	$(GO) run ./cmd/mostbench -city

# CI-sized city run: same pipeline, small city, seconds not minutes.
# Gated against the checked-in throughput baseline: the run fails if
# sustained updates/sec drops below 75% of BENCH_city_baseline.json.
# `make cityquick GATE=` skips the gate on noisy machines.
GATE ?= -gate BENCH_city_baseline.json
cityquick:
	$(GO) run ./cmd/mostbench -city -quick $(GATE)

# Cluster gates, always under the race detector: the 3-node loopback
# differential oracle (cluster answer streams bit-identical to a single
# node over the city replay) plus the cluster chaos scenario (node
# kill/restart and partitions injected mid-handoff, exactly-once checked
# against the single-node oracle).
cluster:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestClusterChaos' ./internal/chaos/

# CI-sized cluster benchmark: the same seeded city replayed against one
# node and a 3-node cluster; writes BENCH_cluster.json.  Gated against
# the checked-in baseline: fails if aggregate cluster updates/sec drops
# below 75% of BENCH_cluster_baseline.json or below the single-node
# phase (partitioning must pay for itself).  `make clusterquick CGATE=`
# skips the gate on noisy machines.
CGATE ?= -gate BENCH_cluster_baseline.json
clusterquick:
	$(GO) run ./cmd/mostbench -cluster -quick $(CGATE)

# Short-mode city differential correctness (one seed): the fast gate the
# city benchmark rides on, plus the catalog's DIST joins checked against
# the §3.3 reference evaluator.  The full two-seed suite and the loopback
# city oracle already run inside `make test`; this target is the quick
# repro.
citycheck:
	$(GO) test -short -count=1 -run 'TestCityCorrectnessOracle|TestCityDeterminism|TestCityDistReference' ./internal/city/

# Race-detector pass over the delta NOTIFY stream: the client-vs-server
# stream differential (coalescing, patch-ring overflow, broken delta
# chains), the SUBSCRIBE-result-before-NOTIFY ordering rule on raw frames,
# and the client registering each subscription before its first NOTIFY.
racestream:
	$(GO) test -race -count=1 -run 'TestDeltaStreamDifferential|TestSubscribeResultPrecedesNotifies|TestSubscribeUnderCommits' ./internal/server/ ./internal/client/

# The benchmark's own smoke test: every perfbench workload on a tiny city,
# untraced and traced, with its output checks.  perfbench is a separate
# module, so `go test ./...` at the root never builds it.
perfbench-smoke:
	cd perfbench && $(GO) test -count=1 .

# Race-detector pass over the shared-plan registration/cancel/drain races
# and the snapshot guarantees (batch-atomic cuts, domains bound from the
# evaluated version, update-log hold release, one round per committed
# batch): the cheap always-on slice
# of `make race` that guards query lifecycle.
racequery:
	$(GO) test -race -count=1 -run 'TestSubscribeCancelRace|TestSubscribeAfterCancel|TestRegistrationWindow|TestSnapshotAtomicBatch|TestSnapshotDomainsMatchObjects|TestPersistentHoldRelease|TestPersistentPlan|TestPlanReevalError|TestBatchOneRoundPerPlan' ./internal/query/
