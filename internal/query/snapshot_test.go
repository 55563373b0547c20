package query_test

// Queries read one published database version: a server UpdateBatch is
// visible whole or not at all, and the domains a query binds come from the
// same version as the objects it evaluates.  Run under -race (make
// racequery).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// TestSnapshotAtomicBatch flips PRICE between 0 and 1 on every car in one
// UpdateBatch after another while in-process queries count the cars at
// PRICE 1: each count must be 0 or all of them, never part of a batch.
func TestSnapshotAtomicBatch(t *testing.T) {
	const n = 64
	db, err := workload.Fleet(workload.FleetSpec{N: n, Region: geom.Rect{Max: geom.Point{X: 100, Y: 100}}, MaxSpeed: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(db)
	srv := server.New(db, eng, server.Config{})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			ops := make([]wire.UpdateOp, n)
			for i := range ops {
				v := wire.FromVal(eval.NumVal(float64(k % 2)))
				ops[i] = wire.UpdateOp{Op: wire.OpSetStatic, ID: fmt.Sprintf("car-%05d", i), Attr: "PRICE", Value: &v}
			}
			if _, err := c.UpdateBatch(ops); err != nil {
				errs <- err
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	partial := 0
	for q := 0; q < 400 && time.Now().Before(deadline); q++ {
		rows, err := eng.Query(`RETRIEVE o FROM Vehicles o WHERE o.PRICE = 1`, query.Options{Horizon: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 && len(rows) != n {
			partial++
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if partial > 0 {
		t.Fatalf("%d queries saw part of a batch", partial)
	}
}

// TestSnapshotDomainsMatchObjects runs queries beside a stream of inserts:
// a query must never bind an object its snapshot does not hold ("unknown
// object").
func TestSnapshotDomainsMatchObjects(t *testing.T) {
	db := most.NewDatabase()
	cls := most.MustClass("Vehicles", true)
	if err := db.DefineClass(cls); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) error {
		o, err := most.NewObject(most.ObjectID(fmt.Sprintf("v%06d", i)), cls)
		if err != nil {
			return err
		}
		if o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: float64(i % 50)}, geom.Vector{X: 1}, 0)); err != nil {
			return err
		}
		return db.Insert(o)
	}
	for i := 0; i < 200; i++ {
		if err := insert(i); err != nil {
			t.Fatal(err)
		}
	}
	eng := query.NewEngine(db)
	opts := query.Options{Horizon: 5, Regions: map[string]geom.Polygon{"P": geom.RectPolygon(10, -10, 20, 10)}}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 200; i < 20000 && !stop.Load(); i++ {
			if err := insert(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for q := 0; q < 500 && time.Now().Before(deadline); q++ {
		if _, err := eng.Query(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`, opts); err != nil {
			stop.Store(true)
			wg.Wait()
			if strings.Contains(err.Error(), "unknown object") {
				t.Fatalf("query %d bound an object outside its snapshot: %v", q, err)
			}
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestPersistentHoldRelease checks that the update log lives exactly as
// long as a persistent query holds it: kept while one is registered,
// emptied when the last is cancelled, and not kept afterwards.
func TestPersistentHoldRelease(t *testing.T) {
	db, err := workload.Fleet(workload.FleetSpec{N: 20, Region: geom.Rect{Max: geom.Point{X: 100, Y: 100}}, MaxSpeed: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(db)
	move := func(k int) {
		t.Helper()
		db.Advance(1)
		if err := db.SetMotion(most.ObjectID(fmt.Sprintf("car-%05d", k%20)), geom.Vector{X: float64(k%3) - 1}); err != nil {
			t.Fatal(err)
		}
	}
	move(0)
	if n := len(db.History().Updates()); n != 0 {
		t.Fatalf("log holds %d updates with no persistent query", n)
	}
	q := `RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`
	opts := query.Options{Horizon: 10, Regions: map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)}}
	pq1, err := eng.Persistent(ftl.MustParse(q), opts)
	if err != nil {
		t.Fatal(err)
	}
	move(1)
	pq2, err := eng.Persistent(ftl.MustParse(q), opts)
	if err != nil {
		t.Fatal(err)
	}
	move(2)
	if n := len(db.History().Updates()); n != 2 {
		t.Fatalf("log holds %d updates, want the 2 since the first hold", n)
	}
	pq1.Cancel()
	if n := len(db.History().Updates()); n != 1 {
		t.Fatalf("log holds %d updates after the first cancel, want the 1 since the second hold", n)
	}
	pq2.Cancel()
	if n := len(db.History().Updates()); n != 0 {
		t.Fatalf("log holds %d updates after the last cancel", n)
	}
	move(3)
	if n := len(db.History().Updates()); n != 0 {
		t.Fatalf("log holds %d updates after the last cancel and a new update", n)
	}
}
