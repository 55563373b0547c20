package query

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
)

// TestConcurrentUpdatesAndQueries runs 8 updaters against 8 instantaneous
// queriers on one database, with a continuous and a persistent query
// registered so maintenance races with both.  Run under -race this is the
// regression test for the snapshot/locking discipline; the final
// materialized answers must equal a fresh evaluation of the final state
// (a full history replay for the persistent query).
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	db, cls := testDB(t)
	e := NewEngine(db)
	const nCars = 32
	for i := 0; i < nCars; i++ {
		addCar(t, db, cls, most.ObjectID(fmt.Sprintf("car-%02d", i)), geom.Point{X: float64(i)}, geom.Vector{X: 1})
	}
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	opts := Options{Horizon: 100, Regions: regionP()}

	cq, err := e.Continuous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Persistent(q, opts)
	if err != nil {
		t.Fatal(err)
	}

	const updaters, queriers, rounds = 8, 8, 20
	var wg sync.WaitGroup
	errCh := make(chan error, updaters+queriers)
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := most.ObjectID(fmt.Sprintf("car-%02d", (u*rounds+k)%nCars))
				if err := db.SetMotion(id, geom.Vector{X: float64((u+k)%5) - 2}); err != nil {
					errCh <- err
					return
				}
			}
		}(u)
	}
	for qi := 0; qi < queriers; qi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if _, err := e.Instantaneous(q, opts); err != nil {
					errCh <- err
					return
				}
				if _, err := cq.Answer(); err != nil {
					errCh <- err
					return
				}
				if _, err := pq.Current(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// All updaters have returned, so no reevaluation is in flight (the
	// coalescing loop runs on an updater's notify path) and the installed
	// answer reflects the final state.
	fresh, err := e.InstantaneousRelation(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cq.Answer()
	if err != nil {
		t.Fatal(err)
	}
	now := db.Now()
	if fmt.Sprint(got.At(now)) != fmt.Sprint(fresh.At(now)) {
		t.Fatalf("Answer(CQ) diverged from fresh evaluation:\n got %v\nwant %v", got.At(now), fresh.At(now))
	}
	// The persistent plan patched the same concurrent updates object by
	// object; it must have converged to a full replay of the final history.
	rows, err := pq.Current()
	if err != nil {
		t.Fatal(err)
	}
	if want := naivePersistent(t, db, q, opts.Regions, pq.Anchor(), opts.horizon()); !sameRows(rows, want) {
		t.Fatalf("persistent answer diverged from a full replay:\n got %v\nwant %v", rowKeys(rows), rowKeys(want))
	}
}
