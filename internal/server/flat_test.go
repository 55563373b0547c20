package server

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// deltaPipeline registers `RETRIEVE o ... INSIDE(o, P)` over n cars parked
// inside P (an answer of n tuples) and wires its installs through the
// server's push path: the plan's wire state records each patch, and a
// version-3 pump's work — composing the delta from the install the client
// holds and encoding the NOTIFY — runs in the listener.  Each call of the
// returned step commits one relevant update: one car alternates between
// parked and leaving P, changing one tuple's interval.
func deltaPipeline(tb testing.TB, n int) (step func(), cancel func()) {
	db := most.NewDatabase()
	cls := most.MustClass("Vehicles", true)
	if err := db.DefineClass(cls); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o, err := most.NewObject(most.ObjectID(fmt.Sprintf("car-%06d", i)), cls)
		if err != nil {
			tb.Fatal(err)
		}
		p := geom.Point{X: 10 + 10*float64(i)/float64(n), Y: 0}
		if o, err = o.WithPosition(motion.MovingFrom(p, geom.Vector{}, db.Now())); err != nil {
			tb.Fatal(err)
		}
		if err := db.Insert(o); err != nil {
			tb.Fatal(err)
		}
	}
	cq, err := query.NewEngine(db).Continuous(ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`),
		query.Options{Horizon: 50, Regions: map[string]geom.Polygon{"P": geom.RectPolygon(0, -10, 30, 10)}})
	if err != nil {
		tb.Fatal(err)
	}
	in0, err := cq.Installed()
	if err != nil || in0.Rel.Len() != n {
		tb.Fatalf("initial answer: %v tuples, err %v; want %d", in0.Rel.Len(), err, n)
	}
	pw, m := &planWire{}, newMetrics(nil)
	held, seq := in0.Gen, uint64(0)
	if err := cq.SubscribeInstalls(func(in query.Install) {
		pw.record(in)
		gone, rows, ok := pw.since(held, in.Gen)
		if !ok {
			tb.Errorf("install %d: no delta from %d", in.Gen, held)
			return
		}
		notify := wire.Notify{SubID: 1, Seq: seq + 1, Delta: true, Base: seq, Gone: gone, Answer: rows}
		f, err := wire.EncodePooled(wire.ProtocolV3, wire.OpNotify, 0, &notify)
		if err != nil {
			tb.Error(err)
		}
		wire.Recycle(f)
		m.notifyRows.Add(int64(len(rows) + len(gone)))
		held, seq = in.Gen, seq+1
	}); err != nil {
		tb.Fatal(err)
	}
	i := 0
	step = func() {
		id := most.ObjectID(fmt.Sprintf("car-%06d", (i/2*7919)%n))
		v := geom.Vector{}
		if i%2 == 0 {
			v.X = 1
		}
		i++
		if err := db.SetMotion(id, v); err != nil {
			tb.Fatal(err)
		}
	}
	return step, cq.Cancel
}

// perUpdate measures allocations and bytes allocated per relevant update
// through the whole delta path at an answer of n tuples.
func perUpdate(t *testing.T, n int) (allocs, bytes float64) {
	step, cancel := deltaPipeline(t, n)
	defer cancel()
	const runs = 400
	for i := 0; i < 20; i++ {
		step() // warm caches and pools
	}
	allocs = testing.AllocsPerRun(runs, step)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDeltaPathFlat pins that a relevant update costs O(touched tuples),
// not O(|Answer(CQ)|), from maintenance through server-side conversion:
// allocations and bytes per update at a 10,000-tuple answer stay within
// 2x of those at 100 tuples.  A step that copied, diffed, converted or
// encoded the whole answer would grow them ~100x.
func TestDeltaPathFlat(t *testing.T) {
	smallAllocs, smallBytes := perUpdate(t, 100)
	largeAllocs, largeBytes := perUpdate(t, 10_000)
	t.Logf("per update: %.0f allocs / %.0f B at 100 tuples, %.0f allocs / %.0f B at 10k", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > 2*smallAllocs {
		t.Errorf("allocs per update: %.0f at 10k tuples vs %.0f at 100 (> 2x)", largeAllocs, smallAllocs)
	}
	if largeBytes > 2*smallBytes {
		t.Errorf("bytes per update: %.0f at 10k tuples vs %.0f at 100 (> 2x)", largeBytes, smallBytes)
	}
}

// BenchmarkDeltaInstall measures one relevant update through maintenance,
// the plan's wire state and NOTIFY encoding against answers of 100, 1k and
// 10k tuples.  Time and allocations should stay flat across sizes.
func BenchmarkDeltaInstall(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			step, cancel := deltaPipeline(b, n)
			defer cancel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
