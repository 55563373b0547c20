package city

import (
	"fmt"
	"testing"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
)

// midSpec is the 15k-car city the query_mix and cq_city benchmark
// workloads run on.
func midSpec() Spec {
	return Spec{Seed: 3, Cars: 15_000, Buses: 24,
		GridW: 24, GridH: 24, DistrictsX: 4, DistrictsY: 4, POIsPerDistrict: 3,
		Ticks: 10, Horizon: 20, TurnProb: 0.12, ReturnFrac: 0.2}
}

// benchCity materializes the mid city and replays the first ticks of its
// motion schedule, so the cars are under way as they are mid-run.
func benchCity(b *testing.B, ticks int) (*City, *most.Database, query.Options) {
	b.Helper()
	c, err := Generate(midSpec())
	if err != nil {
		b.Fatal(err)
	}
	db, err := c.Database()
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range c.Events {
		if int(e.Tick) >= ticks {
			break
		}
		for db.Now() < e.Tick {
			db.Advance(1)
		}
		if err := db.SetMotion(e.Object, e.Vector); err != nil {
			b.Fatal(err)
		}
	}
	return c, db, query.Options{Horizon: c.Spec.Horizon, Regions: c.Catalog().Regions}
}

// BenchmarkCityQuery times the instantaneous INSIDE queries of the
// query_mix workload on the mid city, cycling over every district
// (range_district) or every POI ring (nearest_poi).  The warm-up query
// activates the Cars grid index, so the timed queries probe it.  The
// bus_meet and follow_bus families time the catalog's two DIST joins
// (follow_bus, a continuous template, evaluated as an instantaneous
// query) and report the instantiations enumerated and the pairs the
// motion envelopes decided, per query.
func BenchmarkCityQuery(b *testing.B) {
	c, db, opts := benchCity(b, 3)
	e := query.NewEngine(db)
	var districts, pois []string
	for _, d := range c.Districts {
		districts = append(districts, fmt.Sprintf("RETRIEVE o FROM Cars o WHERE INSIDE(o, %s)", d.Name))
	}
	for _, p := range c.POIs {
		pois = append(pois, fmt.Sprintf("RETRIEVE o FROM Cars o WHERE INSIDE(o, %s)", p.Region))
	}
	for _, fam := range []struct {
		name string
		srcs []string
	}{{"range_district", districts}, {"nearest_poi", pois}} {
		b.Run(fam.name, func(b *testing.B) {
			if _, err := e.Query(fam.srcs[0], opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(fam.srcs[i%len(fam.srcs)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, tpl := range c.Catalog().Templates {
		if tpl.Family != "bus_meet" && tpl.Family != "follow_bus" {
			continue
		}
		b.Run(tpl.Family, func(b *testing.B) {
			reg := obs.New()
			e.Instrument(reg)
			defer e.Instrument(nil)
			before := reg.Snapshot().Counters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(tpl.Src, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := reg.Snapshot().Counters
			for name, unit := range map[string]string{"eval.instantiations": "inst/op", "eval.dist_pruned": "pruned/op"} {
				b.ReportMetric(float64(after[name]-before[name])/float64(b.N), unit)
			}
		})
	}
}

// BenchmarkCitySetMotion times one motion update of a mid-city car, with
// the clock advancing as often as the city's schedule advances it, with
// the Cars class indexed (after one INSIDE probe) and not: the difference
// is the commit-path cost of the grid index.
func BenchmarkCitySetMotion(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		b.Run(map[bool]string{false: "unindexed", true: "indexed"}[indexed], func(b *testing.B) {
			c, db, opts := benchCity(b, 3)
			if indexed {
				if _, err := query.NewEngine(db).Query(fmt.Sprintf("RETRIEVE o FROM Cars o WHERE INSIDE(o, %s)", c.POIs[0].Region), opts); err != nil {
					b.Fatal(err)
				}
			}
			perTick := max(1, len(c.Events)/int(c.Spec.Ticks))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perTick == perTick-1 {
					db.Advance(1)
				}
				e := c.Events[i%len(c.Events)]
				if err := db.SetMotion(e.Object, e.Vector); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
