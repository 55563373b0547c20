package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// ServerResult is one row of the network-service benchmark: n concurrent
// clients, each pipelining batched motion updates through a loopback TCP
// server, with client-observed round-trip latency percentiles and the
// aggregate committed-update throughput.
type ServerResult struct {
	Conns         int     `json:"conns"`
	BatchSize     int     `json:"batch_size"`
	Batches       int     `json:"batches"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
}

// ServerReport is the payload mostbench -server writes to
// BENCH_server.json: one result row per configuration.
type ServerReport struct {
	Vehicles int            `json:"vehicles"`
	Results  []ServerResult `json:"results"`
}

// ServerBench sweeps connection counts (and, in the full run, batch sizes)
// against one loopback server and measures what a client sees: per-batch
// round-trip latency (p50/p99) and total committed updates per second.
// Every batch is a real mutation — the server applies it to the database
// and runs continuous-query maintenance inline — so the numbers include
// the full commit path, not just framing.  Clients negotiate the newest
// protocol version; update batches encode identically at every version.
func ServerBench(quick bool) *ServerReport {
	const nVehicles = 200
	conns := []int{1, 4, 16}
	batchSizes := []int{8}
	batchesPerConn := 150
	if !quick {
		conns = []int{1, 4, 16, 32}
		batchSizes = []int{1, 8}
		batchesPerConn = 400
	}

	rep := &ServerReport{Vehicles: nVehicles}
	for _, bs := range batchSizes {
		for _, nc := range conns {
			rep.Results = append(rep.Results, runServerBench(nVehicles, nc, bs, batchesPerConn))
		}
	}
	return rep
}

func runServerBench(nVehicles, conns, batchSize, batches int) ServerResult {
	db, err := workload.Fleet(workload.FleetSpec{
		N:        nVehicles,
		Region:   geom.Rect{Max: geom.Point{X: 1000, Y: 1000}},
		MaxSpeed: 3,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	eng := query.NewEngine(db)
	srv := server.New(db, eng, server.Config{
		BaseOptions: query.Options{
			Horizon: 100,
			Regions: map[string]geom.Polygon{"P": geom.RectPolygon(200, 200, 600, 600)},
		},
	})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		panic(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithClientID(fmt.Sprintf("bench-%d", w)))
			if err != nil {
				panic(err)
			}
			defer c.Close()
			local := make([]time.Duration, 0, batches)
			ops := make([]wire.UpdateOp, batchSize)
			for b := 0; b < batches; b++ {
				for i := range ops {
					id := (w*batches*batchSize + b*batchSize + i) % nVehicles
					ops[i] = wire.UpdateOp{
						Op: wire.OpSetMotion,
						ID: fmt.Sprintf("car-%05d", id),
						VX: float64(b%7) - 3,
						VY: float64(i%5) - 2,
					}
				}
				t0 := time.Now()
				if _, err := c.UpdateBatch(ops); err != nil {
					panic(err)
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	totalUpdates := conns * batches * batchSize
	return ServerResult{
		Conns:         conns,
		BatchSize:     batchSize,
		Batches:       conns * batches,
		UpdatesPerSec: float64(totalUpdates) / elapsed.Seconds(),
		P50Ns:         pct(0.50).Nanoseconds(),
		P99Ns:         pct(0.99).Nanoseconds(),
	}
}

// Table renders the report for the terminal, one row per (conns, batch)
// configuration.
func (r *ServerReport) Table() *Table {
	t := &Table{
		ID:      "SRV",
		Title:   "network service throughput (pipelined update batches over loopback TCP)",
		Claim:   "the binary codec with the zero-alloc ingest path sustains pipelined update throughput at bounded tail latency",
		Columns: []string{"conns", "batch", "batches", "updates/s", "p50", "p99"},
	}
	for _, res := range r.Results {
		t.AddRow(
			itoa(res.Conns),
			itoa(res.BatchSize),
			itoa(res.Batches),
			fmt.Sprintf("%.0f", res.UpdatesPerSec),
			ns(time.Duration(res.P50Ns)),
			ns(time.Duration(res.P99Ns)),
		)
	}
	return t
}
