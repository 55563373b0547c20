package experiments

import (
	"github.com/mostdb/most/internal/temporal"
)

// E4ContinuousIndex measures the §4 continuous range query: one index
// probe over the rectangle [lo,hi] x [now,T] yields Answer(CQ) — each
// object with the time intervals during which it is in range — versus
// naively re-running the instantaneous query at every clock tick.  Beside
// the timings it counts what each side returns: the single probe one tuple
// per object in range, the h per-tick probes one entry per (tick, object
// in range), Σₜ|answer(t)|.
func E4ContinuousIndex(quick bool) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "continuous range query: one index probe vs per-tick instantaneous probes (§4)",
		Claim:   "the continuous answer with per-object intervals is constructed from a single probe; per-tick probing costs a probe per tick",
		Columns: []string{"objects", "horizon", "answer tuples", "per-tick entries", "single probe", "per-tick probes", "ratio"},
	}
	sizes := []int{1000, 10000}
	horizons := []temporal.Tick{200, 1000}
	reps := 20
	if quick {
		sizes = []int{1000}
		reps = 5
	}
	for _, n := range sizes {
		for _, h := range horizons {
			ix, _ := indexedFleet(n, h, 0.1, 9)
			lo, hi := 100.0, 102.0
			tuples := len(ix.ContinuousQuery(lo, hi, 0))
			entries := 0
			for at := temporal.Tick(0); at < h; at++ {
				entries += len(ix.InstantQuery(lo, hi, at))
			}
			single := timeIt(reps, func() { ix.ContinuousQuery(lo, hi, 0) })
			perTick := timeIt(reps, func() {
				for at := temporal.Tick(0); at < h; at++ {
					ix.InstantQuery(lo, hi, at)
				}
			})
			t.AddRow(itoa(n), itoa(int(h)), itoa(tuples), itoa(entries), ns(single), ns(perTick),
				f2(float64(perTick)/float64(single))+"x")
		}
	}
	return t
}
