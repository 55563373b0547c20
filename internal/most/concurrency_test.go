package most

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
)

// TestDatabaseConcurrentOps hammers one database with concurrent updaters,
// readers, and a goroutine advancing the clock.  Run under -race this
// exercises the commit lock and lock-free snapshots; afterwards the
// structural invariants the sequential code relies on must still hold.
func TestDatabaseConcurrentOps(t *testing.T) {
	db := NewDatabase()
	cls := MustClass("Cars", true, AttrDef{Name: "PRICE", Kind: Static})
	if err := db.DefineClass(cls); err != nil {
		t.Fatal(err)
	}
	const nObjs = 64
	ids := make([]ObjectID, nObjs)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("car-%03d", i))
		o, err := NewObject(ids[i], cls)
		if err != nil {
			t.Fatal(err)
		}
		o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: float64(i)}, geom.Vector{X: 1}, db.Now()))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
	}

	v0 := db.Version()
	_, release := db.HoldHistory()
	defer release()

	const updaters = 8
	const rounds = 40
	var wg sync.WaitGroup
	errCh := make(chan error, updaters+4)

	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := ids[(u*rounds+k)%nObjs]
				if err := db.SetMotion(id, geom.Vector{X: float64(k%5) - 2}); err != nil {
					errCh <- err
					return
				}
				if err := db.SetStatic(id, "PRICE", Float(float64(k))); err != nil {
					errCh <- err
					return
				}
			}
		}(u)
	}

	// Readers: snapshots, lookups, scans, history.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if n := db.Snapshot().Len(); n != nObjs {
					errCh <- fmt.Errorf("snapshot has %d objects, want %d", n, nObjs)
					return
				}
				if _, ok := db.Get(ids[k%nObjs]); !ok {
					errCh <- fmt.Errorf("object %s missing", ids[k%nObjs])
					return
				}
				_ = db.Objects("Cars")
				_ = db.Count()
				_ = db.History()
				_ = db.Version()
			}
		}()
	}

	// Clock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			db.Tick()
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Invariants: log ticks non-decreasing, the held log holds every
	// update since the hold, all objects still present.
	h := db.History()
	log := h.Updates()
	for i := 1; i < len(log); i++ {
		if log[i].Tick < log[i-1].Tick {
			t.Fatalf("log out of order at %d: tick %d after %d", i, log[i].Tick, log[i-1].Tick)
		}
	}
	if got := db.Version(); got != v0+uint64(len(log)) {
		t.Fatalf("Version = %d, want %d + log length %d", got, v0, len(log))
	}
	if db.Count() != nObjs {
		t.Fatalf("Count = %d, want %d", db.Count(), nObjs)
	}
	for _, id := range ids {
		if _, ok := h.RevisionAt(id, db.Now()); !ok {
			t.Fatalf("history lost object %s", id)
		}
	}
}

// TestDatabaseConcurrentInsertDelete interleaves inserts and deletes with
// class scans; scans and point lookups must stay consistent.
func TestDatabaseConcurrentInsertDelete(t *testing.T) {
	db := NewDatabase()
	cls := MustClass("Fleet", true)
	if err := db.DefineClass(cls); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				id := ObjectID(fmt.Sprintf("w%d-%03d", w, k))
				o, err := NewObject(id, cls)
				if err != nil {
					errCh <- err
					return
				}
				o, err = o.WithPosition(motion.MovingFrom(geom.Point{}, geom.Vector{X: 1}, db.Now()))
				if err != nil {
					errCh <- err
					return
				}
				if err := db.Insert(o); err != nil {
					errCh <- err
					return
				}
				if k%3 == 0 {
					if err := db.Delete(id); err != nil {
						errCh <- err
						return
					}
				}
				_ = db.Objects("Fleet")
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Every remaining object is reachable both by scan and by Get.
	for _, o := range db.Objects("Fleet") {
		if _, ok := db.Get(o.ID()); !ok {
			t.Fatalf("scan returned %s but Get misses it", o.ID())
		}
	}
	want := workers * perWorker * 2 / 3
	if got := db.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

// TestHeapFlatWithoutHistoryHold drives a million motion updates, with a
// snapshot and a clock tick every thousand, through a database no
// persistent query holds: nothing may accumulate per update, so the live
// heap stays flat.
func TestHeapFlatWithoutHistoryHold(t *testing.T) {
	if raceEnabled {
		t.Skip("a million updates take too long under the race detector")
	}
	db, c := newTestDB(t)
	const nObjs = 10000
	for i := 0; i < nObjs; i++ {
		insertCar(t, db, c, ObjectID(fmt.Sprintf("car-%05d", i)), geom.Point{X: float64(i % 100)}, geom.Vector{X: 1})
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const updates, every = 1_000_000, 100_000
	var base uint64
	for k := 0; k < updates; k++ {
		if err := db.SetMotion(ObjectID(fmt.Sprintf("car-%05d", k%nObjs)), geom.Vector{X: float64(k%7) - 3}); err != nil {
			t.Fatal(err)
		}
		if k%1000 == 999 {
			db.Tick()
			db.Snapshot()
		}
		if (k+1)%every != 0 {
			continue
		}
		if k+1 == every {
			base = live()
			continue
		}
		// A few MB of slack for allocator and GC noise; a leak of 100
		// bytes per update would exceed it at the next check.
		if h := live(); h > base+8<<20 {
			t.Fatalf("live heap grew from %d to %d bytes after %d updates", base, h, k+1)
		}
	}
	if db.Version() != nObjs+updates {
		t.Fatalf("Version = %d, want %d", db.Version(), nObjs+updates)
	}
}
