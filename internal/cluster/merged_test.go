package cluster

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// TestMergedSubConcurrentReaders reads one merged subscription from
// several goroutines while node answers change underneath: each reader's
// sequence numbers never go backwards, and once the updates stop the
// merged answer converges to the union of the per-node answers.  Run it
// under -race: rebuilding the union on read must not race the watchers
// or a second reader.
func TestMergedSubConcurrentReaders(t *testing.T) {
	spec := city.Spec{
		Seed: 5, Cars: 60, Buses: 3,
		GridW: 6, GridH: 6, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 1,
		Ticks: 6, Horizon: 12,
	}
	cty, err := city.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cat := cty.Catalog()
	side := float64(spec.GridW-1) * 100
	c, err := Start(Config{
		Nodes: 2, GridX: 2, GridY: 1,
		Bounds:     geom.Rect{Max: geom.Point{X: side, Y: side}},
		Replicated: []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:       cty.Database,
		Opts:       query.Options{Horizon: spec.Horizon, Regions: cat.Regions},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sub, err := r.Subscribe(cat.Continuous()[0].Src, spec.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, seq, err := sub.Answer()
				if err != nil {
					t.Error(err)
					return
				}
				if seq < last {
					t.Errorf("merged seq went backwards: %d after %d", seq, last)
					return
				}
				last = seq
			}
		}()
	}
	byTick := map[temporal.Tick][]wire.UpdateOp{}
	for _, e := range cty.Events {
		byTick[e.Tick] = append(byTick[e.Tick], wire.UpdateOp{
			Op: wire.OpSetMotion, ID: string(e.Object), VX: e.Vector.X, VY: e.Vector.Y,
		})
	}
	for tk := temporal.Tick(1); tk <= spec.Ticks; tk++ {
		if _, err := r.Advance(1); err != nil {
			t.Fatal(err)
		}
		if ops := byTick[tk]; len(ops) > 0 {
			if _, err := r.UpdateBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The reference union, built straight from the node subscriptions.
	union := func() string {
		merged := map[string]wire.AnswerRow{}
		for _, s := range sub.subs {
			ans, _, err := s.Answer()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range ans {
				merged[wire.CanonicalAnswers([]wire.AnswerRow{row})] = row
			}
		}
		keys := make([]string, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rows := make([]wire.AnswerRow, len(keys))
		for i, k := range keys {
			rows[i] = merged[k]
		}
		return wire.CanonicalAnswers(rows)
	}
	deadline := time.After(10 * time.Second)
	for {
		ans, _, err := sub.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if wire.CanonicalAnswers(ans) == union() {
			return
		}
		select {
		case <-sub.Updates():
		case <-deadline:
			t.Fatal("merged answer never converged to the union of the node answers")
		}
	}
}
