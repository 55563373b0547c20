// Benchmarks: one target per experiment (plus core micro-benchmarks).  Each
// exercises the operation whose cost the corresponding paper claim is
// about; `go test -bench=. -benchmem` regenerates the performance side of
// EXPERIMENTS.md, and `cmd/mostbench` prints the full tables.
package mostdb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mostdb/most/internal/dist"
	"github.com/mostdb/most/internal/experiments"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/index"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/mostsql"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/relstore"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/workload"
)

// ---- E1: the three query types ----

func BenchmarkE1QueryTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1QueryTypes()
	}
}

// ---- E2: update traffic ----

func BenchmarkE2UpdateTraffic(b *testing.B) {
	spec := workload.FleetSpec{N: 1000, Region: geom.Rect{Max: geom.Point{X: 1000, Y: 1000}}, MaxSpeed: 3, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.UpdateTraffic(spec, 0.01, 600)
	}
}

// ---- E3: index vs scan ----

func attrFleet(n int) (*index.AttrIndex, map[most.ObjectID]motion.DynamicAttr) {
	r := rand.New(rand.NewSource(5))
	attrs := make(map[most.ObjectID]motion.DynamicAttr, n)
	for i := 0; i < n; i++ {
		id := most.ObjectID(fmt.Sprintf("o%06d", i))
		attrs[id] = motion.DynamicAttr{
			Value:    r.Float64()*2000 - 1000,
			Function: motion.Linear(r.Float64()*6 - 3),
		}
	}
	ix := index.NewAttrIndex(0, 1000)
	ix.Rebuild(0, attrs)
	return ix, attrs
}

func BenchmarkE3IndexVsScan(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		ix, attrs := attrFleet(n)
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cnt := 0
				for _, a := range attrs {
					if v := a.At(500); v >= 100 && v <= 104 {
						cnt++
					}
				}
			}
		})
		b.Run(fmt.Sprintf("index/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.InstantQuery(100, 104, 500)
			}
		})
	}
}

// ---- E4: continuous range query ----

func BenchmarkE4ContinuousIndex(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	attrs := make(map[most.ObjectID]motion.DynamicAttr, 10000)
	for i := 0; i < 10000; i++ {
		id := most.ObjectID(fmt.Sprintf("o%06d", i))
		attrs[id] = motion.DynamicAttr{
			Value:    r.Float64()*2000 - 1000,
			Function: motion.Linear(r.Float64()*0.2 - 0.1),
		}
	}
	ix := index.NewAttrIndex(0, 1000)
	ix.Rebuild(0, attrs)
	b.Run("single-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.ContinuousQuery(100, 102, 0)
		}
	})
	b.Run("per-tick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for at := temporal.Tick(0); at < 1000; at++ {
				ix.InstantQuery(100, 102, at)
			}
		}
	})
}

// ---- E5: continuous query vs per-tick reevaluation ----

func motelScenario(b *testing.B) (*most.Database, *query.Engine, *ftl.Query, query.Options) {
	b.Helper()
	db := most.NewDatabase()
	vehicles := most.MustClass("Vehicles", true)
	if err := db.DefineClass(vehicles); err != nil {
		b.Fatal(err)
	}
	if err := workload.AddMotels(db, workload.MotelsSpec{
		N:      100,
		Region: geom.Rect{Min: geom.Point{Y: -4}, Max: geom.Point{X: 200, Y: 4}},
		Seed:   3,
	}); err != nil {
		b.Fatal(err)
	}
	car, _ := most.NewObject("car", vehicles)
	car, _ = car.WithPosition(motion.MovingFrom(geom.Point{}, geom.Vector{X: 1}, 0))
	if err := db.Insert(car); err != nil {
		b.Fatal(err)
	}
	q := ftl.MustParse(`RETRIEVE m FROM Motels m, Vehicles c WHERE DIST(m, c) <= 5`)
	return db, query.NewEngine(db), q, query.Options{Horizon: 250}
}

func BenchmarkE5ContinuousVsPerTick(b *testing.B) {
	b.Run("continuous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, engine, q, opts := motelScenario(b)
			cq, err := engine.Continuous(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			for tick := temporal.Tick(0); tick < 200; tick = db.Tick() {
				if _, err := cq.Current(tick); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("per-tick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, engine, q, opts := motelScenario(b)
			for tick := temporal.Tick(0); tick < 200; tick = db.Tick() {
				if _, err := engine.Instantaneous(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---- E6: Until join ----

func untilSets(n int) (temporal.Set, temporal.Set) {
	r := rand.New(rand.NewSource(int64(n)))
	var fIvs, hIvs []temporal.Interval
	for i := 0; i < n; i++ {
		base := temporal.Tick(16 * i)
		fIvs = append(fIvs, temporal.Interval{Start: base, End: base + 12})
		s := base + temporal.Tick(2+r.Intn(8))
		hIvs = append(hIvs, temporal.Interval{Start: s, End: s + 1})
	}
	return temporal.NewSet(fIvs...), temporal.NewSet(hIvs...)
}

func BenchmarkE6UntilJoin(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		f, h := untilSets(n)
		w := temporal.Interval{Start: 0, End: temporal.Tick(16 * n)}
		b.Run(fmt.Sprintf("pairwise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				temporal.UntilChains(f, h, w)
			}
		})
		b.Run(fmt.Sprintf("merge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				temporal.Until(f, h, w)
			}
		})
	}
}

// ---- E7: 2^k decomposition ----

func sqlSystem(b *testing.B, n, k int) (*mostsql.System, *temporal.Tick) {
	b.Helper()
	now := temporal.Tick(10)
	sys := mostsql.New(relstore.NewStore(), func() temporal.Tick { return now })
	dyn := make([]string, k)
	for i := range dyn {
		dyn[i] = fmt.Sprintf("D%d", i)
	}
	if _, err := sys.CreateTable("vehicles", "id", []string{"price"}, dyn); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		attrs := map[string]motion.DynamicAttr{}
		for _, a := range dyn {
			attrs[a] = motion.DynamicAttr{Value: r.Float64()*200 - 100, Function: motion.Linear(r.Float64()*4 - 2)}
		}
		if err := sys.Insert("vehicles", relstore.Str(fmt.Sprintf("v%06d", i)),
			map[string]relstore.Value{"price": relstore.Num(float64(r.Intn(300)))}, attrs); err != nil {
			b.Fatal(err)
		}
	}
	return sys, &now
}

func BenchmarkE7Decomposition(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		sys, _ := sqlSystem(b, 1000, k)
		sql := "SELECT id FROM vehicles WHERE D0 >= -50"
		for i := 1; i < k; i++ {
			sql += fmt.Sprintf(" AND D%d >= -50", i)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: index-assisted rewriting ----

func BenchmarkE8RewriteWithIndex(b *testing.B) {
	sys, _ := sqlSystem(b, 20000, 1)
	if err := sys.CreateDynamicIndex("vehicles", "D0", 0, 1000); err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT id FROM vehicles WHERE D0 >= 115"
	b.Run("per-tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.QueryWithIndex(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: distributed strategies ----

func distSim(b *testing.B, n int) *dist.Sim {
	b.Helper()
	sim := dist.NewSim(1)
	cls := most.MustClass("Vehicles", true)
	for i := 0; i < n; i++ {
		id := most.ObjectID(fmt.Sprintf("v%05d", i))
		o, err := most.NewObject(id, cls)
		if err != nil {
			b.Fatal(err)
		}
		v := geom.Vector{Y: 1}
		if i%10 == 0 {
			v = geom.Vector{X: 1}
		}
		o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: -10}, v, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.AddNode(o); err != nil {
			b.Fatal(err)
		}
	}
	sim.Regions["P"] = geom.RectPolygon(0, -5, 1000, 5)
	return sim
}

func BenchmarkE9DistStrategies(b *testing.B) {
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 100 INSIDE(o, P)`)
	for _, strat := range []struct {
		name string
		s    dist.Strategy
	}{{"ship", dist.ShipObjects}, {"broadcast", dist.BroadcastQuery}} {
		b.Run(strat.name, func(b *testing.B) {
			sim := distSim(b, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunObjectQuery(sim.Nodes()[0], q, 200, strat.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E10: delivery modes ----

func BenchmarkE10ImmediateVsDelayed(b *testing.B) {
	sim := dist.NewSim(1)
	answers := make([]eval.Answer, 500)
	for i := range answers {
		start := temporal.Tick(i * 5)
		answers[i] = eval.Answer{
			Vals:     []eval.Val{eval.NumVal(float64(i))},
			Interval: temporal.Interval{Start: start, End: start + 8},
		}
	}
	conn := dist.RandomConnectivity(9, 0.1)
	b.Run("immediate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.DeliverAnswer(answers, dist.Immediate, 16, 0, 3000, conn)
		}
	})
	b.Run("delayed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.DeliverAnswer(answers, dist.Delayed, 0, 0, 3000, conn)
		}
	})
}

// ---- core micro-benchmarks ----

func BenchmarkFTLEvalAirspace(b *testing.B) {
	db, err := workload.Airspace(workload.AirspaceSpec{
		N: 200, Radius: 60, Airport: geom.Point{}, Speed: 5, Inbound: 0.3, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	engine := query.NewEngine(db)
	q := ftl.MustParse(`
		RETRIEVE a, t FROM Aircraft a, Aircraft t
		WHERE EVENTUALLY WITHIN 10 DIST(a, t) <= 30`)
	opts := query.Options{Horizon: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Instantaneous(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLParse(b *testing.B) {
	const src = `
		RETRIEVE o FROM Objects o
		WHERE o.PRICE <= 100 AND EVENTUALLY WITHIN 3
			(INSIDE(o, P) AND ALWAYS FOR 2 INSIDE(o, P) AND EVENTUALLY AFTER 5 INSIDE(o, Q))`
	for i := 0; i < b.N; i++ {
		if _, err := ftl.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: index mechanisms ----

func BenchmarkE11IndexMechanisms(b *testing.B) {
	ix, attrs := attrFleet(10000)
	grid := index.NewGridIndex(0, 1000, -4200, 4200, 64, 64)
	for id, a := range attrs {
		if err := grid.Insert(id, a); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.InstantQuery(100, 104, 500)
		}
	})
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grid.InstantQuery(100, 104, 500)
		}
	})
}

// ---- E12: horizon choice (rebuild cost) ----

func BenchmarkE12Rebuild(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	attrs := make(map[most.ObjectID]motion.DynamicAttr, 5000)
	for i := 0; i < 5000; i++ {
		id := most.ObjectID(fmt.Sprintf("o%06d", i))
		attrs[id] = motion.DynamicAttr{Value: r.Float64()*2000 - 1000, Function: motion.Linear(r.Float64()*6 - 3)}
	}
	for _, T := range []temporal.Tick{250, 1000} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			ix := index.NewAttrIndexSlice(0, T, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Rebuild(0, attrs)
			}
		})
	}
}

// ---- quadratic (nonlinear) attributes ----

func BenchmarkQuadraticRangeSolve(b *testing.B) {
	a := motion.DynamicAttr{Value: 50, Function: motion.Accelerating(-10, 1)}
	b.Run("range-times", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.RangeTimes(20, 30, 0, 1000)
		}
	})
	b.Run("compare-ticks", func(b *testing.B) {
		w := temporal.Interval{Start: 0, End: 1000}
		for i := 0; i < b.N; i++ {
			if _, err := a.CompareTicks("<=", 25, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- continuous-query maintenance ----

// benchFleetEngine builds an n-vehicle fleet and a RETRIEVE whose
// per-object INSIDE checks dominate its evaluation.
func benchFleetEngine(b *testing.B, n int) (*most.Database, *query.Engine, *ftl.Query, query.Options) {
	b.Helper()
	db, err := workload.Fleet(workload.FleetSpec{
		N:        n,
		Region:   geom.Rect{Max: geom.Point{X: 1000, Y: 1000}},
		MaxSpeed: 3,
		Seed:     7,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := query.NewEngine(db)
	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`)
	opts := query.Options{
		Horizon: 200,
		Regions: map[string]geom.Polygon{"P": geom.RectPolygon(200, 200, 600, 600)},
	}
	return db, e, q, opts
}

// BenchmarkContinuousMaintenance measures continuous-query upkeep: the
// dispatch of one motion update to the registered queries.
func BenchmarkContinuousMaintenance(b *testing.B) {
	db, e, q, opts := benchFleetEngine(b, 1000)
	for i := 0; i < 8; i++ {
		if _, err := e.Continuous(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One motion-vector update triggers reevaluation of all eight
		// registered continuous queries.
		id := most.ObjectID(fmt.Sprintf("car-%05d", i%1000))
		if err := db.SetMotion(id, geom.Vector{X: float64(i%5) - 2}); err != nil {
			b.Fatal(err)
		}
	}
}
