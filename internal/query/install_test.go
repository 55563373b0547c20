package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// TestInstallPatchStream drives random motion updates, clock advances
// (forcing re-anchoring full runs), inserts and deletes through delta-
// friendly and pair queries, and checks the patch stream a listener sees:
// installs are numbered consecutively, every patch applied to the
// previous install reproduces the new one exactly, earlier installs are
// never changed by later ones, and each install is what Answer returned.
func TestInstallPatchStream(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	e := NewEngine(db)
	e.Instrument(reg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		addCar(t, db, cls, most.ObjectID(fmt.Sprintf("car-%02d", i)),
			geom.Point{X: float64(rng.Intn(40)), Y: float64(rng.Intn(20)) - 10}, geom.Vector{X: float64(rng.Intn(3) - 1)})
	}
	opts := Options{Horizon: 30, Regions: regionP()}
	for _, src := range []string{
		`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 5 INSIDE(o, P)`,
		`RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE ALWAYS FOR 3 DIST(o, n) <= 8`,
	} {
		cq, err := e.Continuous(ftl.MustParse(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Cancel()
		prev, err := cq.Installed()
		if err != nil {
			t.Fatal(err)
		}
		type seen struct {
			rel     *eval.Relation
			answers []eval.Answer
		}
		var history []seen
		fail := func(format string, args ...any) { t.Errorf(src+": "+format, args...) }
		if err := cq.SubscribeInstalls(func(in Install) {
			if in.Gen != prev.Gen+1 {
				fail("install %d follows %d", in.Gen, prev.Gen)
			}
			if in.Patch == nil {
				fail("install %d carries no patch", in.Gen)
			} else if in.Patch.Empty() {
				fail("install %d fanned out an empty patch", in.Gen)
			} else if got := prev.Rel.Patch(*in.Patch); !got.Equal(in.Rel) {
				fail("install %d: previous install + patch != install", in.Gen)
			}
			if cur, _ := cq.Answer(); cur != in.Rel {
				fail("install %d is not the answer Answer returns", in.Gen)
			}
			history = append(history, seen{in.Rel, in.Rel.Answers()})
			prev = in
		}); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			id := most.ObjectID(fmt.Sprintf("car-%02d", rng.Intn(30)))
			switch k := rng.Intn(20); {
			case k == 0:
				db.Advance(temporal.Tick(1 + rng.Intn(4)))
			case k == 1:
				if _, ok := db.Get(id); ok {
					if err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
				} else {
					addCar(t, db, cls, id, geom.Point{X: 15, Y: 0}, geom.Vector{X: 1})
				}
			default:
				if _, ok := db.Get(id); ok {
					if err := db.SetMotion(id, geom.Vector{X: float64(rng.Intn(5) - 2), Y: float64(rng.Intn(3) - 1)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if len(history) < 20 {
			t.Errorf("%s: only %d installs over 300 updates", src, len(history))
		}
		for i, h := range history {
			if !reflect.DeepEqual(h.rel.Answers(), h.answers) {
				t.Fatalf("%s: install %d changed after later installs", src, i)
			}
		}
	}
	if reg.Snapshot().Counters["query.continuous.patch_tuples"] == 0 {
		t.Error("query.continuous.patch_tuples never counted")
	}
}

// deltaInstallFleet registers `RETRIEVE o ... INSIDE(o, P)` over n cars
// parked inside P, so the answer holds n tuples.  Each call of the
// returned step commits one motion update that changes one tuple's
// interval (the car alternates between parked and leaving P), i.e. one
// relevant update applied as a one-tuple patch.
func deltaInstallFleet(tb testing.TB, n int) (*Continuous, func()) {
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
	e := NewEngine(db)
	cq, err := e.Continuous(ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`),
		Options{Horizon: 50, Regions: map[string]geom.Polygon{"P": geom.RectPolygon(0, -10, 30, 10)}})
	if err != nil {
		tb.Fatal(err)
	}
	if rel, _ := cq.Answer(); rel.Len() != n {
		tb.Fatalf("answer holds %d tuples, want %d", rel.Len(), n)
	}
	i := 0
	return cq, func() {
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
}

// BenchmarkDeltaInstall measures one relevant update — commit, pinned
// reevaluation, patch and install — against answers of 100, 1k and 10k
// tuples.  Time and allocations should stay flat across sizes.
func BenchmarkDeltaInstall(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			cq, step := deltaInstallFleet(b, n)
			defer cq.Cancel()
			var installs int
			if err := cq.SubscribeInstalls(func(Install) { installs++ }); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if installs != b.N {
				b.Fatalf("%d installs for %d relevant updates", installs, b.N)
			}
		})
	}
}
