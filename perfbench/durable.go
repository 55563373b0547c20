package main

import (
	"fmt"
	"os"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/server"
)

// durableResult is what a durable ingest measured and checked: bytes the
// process wrote per update, each recovery's wall time, and whether the
// recovered state matched the replica.
type durableResult struct {
	writePerUpdate float64
	recoveries     []float64
	checkpoints    int64 // automatic checkpoints during the ingest
	updates        int
	checkpointS    []float64 // explicit Server.Checkpoint calls (traced runs)
	tries, failed  int
}

// finishDurable runs the restarts and the recovery check against the
// replica's snapshot on a durable server, then stops it.  explicit > 0 first times
// that many explicit Server.Checkpoint calls, which leaves the WAL tail
// empty, so they run only in traced runs, whose recovery_s is not reported.
func finishDurable(srv *server.Server, e *env, dir string, want []byte, dr *durableResult, explicit int) error {
	for i := 0; i < explicit; i++ {
		t0 := time.Now()
		if err := srv.Checkpoint(); err != nil {
			srv.Abort()
			return fmt.Errorf("checkpoint: %w", err)
		}
		dr.checkpointS = append(dr.checkpointS, time.Since(t0).Seconds())
	}
	srv, times, err := restart(srv, dir, e.opts, e.w.restarts)
	if err != nil {
		return err
	}
	defer srv.Abort()
	dr.recoveries = times
	ok, err := checkRecovered(srv, want)
	if err != nil {
		return err
	}
	dr.tries++
	if !ok {
		dr.failed++
	}
	return nil
}

// replicaSnapshot is the SnapshotJSON of a replica fed steps; holding the
// bytes instead of the database keeps the replica's objects off the heap
// the restarts collect.
func replicaSnapshot(c *city.City, steps []step) ([]byte, error) {
	db, err := replica(c, steps)
	if err != nil {
		return nil, err
	}
	return db.SnapshotJSON()
}

// durableProbe gives a workload that serves without a WAL its durability
// numbers: after its measured phase it ingests the first sideOps updates
// of its city's schedule, in 64-op batches as on ingest_durable, into a
// fresh server.NewDurable copy of its city at the shipped checkpoint
// cadence, over one connection, then restarts that server.  The probe
// runs outside the measured phase, so it moves only recovery_s and
// storage_bytes_per_update.
func durableProbe(e *env, dir string, explicit int) (*durableResult, error) {
	pw := *e.w
	pw.batchOps, pw.flipEvery, pw.queryEvery = 64, 0, 0
	steps := buildSteps(e.c, &pw, pw.sideOps, 0)
	db, err := cityDB(e.c)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.New()
	srv, _, err := server.NewDurable(dir, durableConfig(e.opts, reg), func() *most.Database { return db })
	if err != nil {
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		srv.Abort()
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	cl, err := dial(srv.Addr().String(), "perfbench-durable")
	if err != nil {
		srv.Abort()
		return nil, err
	}
	pe := &env{w: e.w, c: e.c, opts: e.opts, srv: srv, upd: cl}
	var seq uint64
	ls, err := pe.drive(steps, 0, len(steps), nil, &seq, nil)
	cl.Close()
	if err != nil {
		srv.Abort()
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	dr := &durableResult{
		writePerUpdate: float64(ls.cost.WriteBytes) / float64(ls.ops),
		checkpoints:    reg.Counter("server.checkpoints").Value(),
		updates:        ls.ops,
		tries:          ls.tries,
		failed:         ls.failed,
	}
	want, err := replicaSnapshot(e.c, steps)
	if err != nil {
		srv.Abort()
		return nil, err
	}
	return dr, finishDurable(srv, e, dir, want, dr, explicit)
}
