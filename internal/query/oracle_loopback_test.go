package query_test

// The loopback network oracle: the differential-oracle discipline of
// oracle_test.go extended across the wire.  Two identical seeded fleets are
// driven in lockstep — one in-process, one behind a real TCP server — with
// every clock advance and motion update applied to both.  After every tick
// the test demands bit-identical answers from both sides:
//
//   - instantaneous queries through client.Query against the in-process
//     engine's rows (float64 values survive the JSON wire encoding exactly;
//     the comparison keys use shortest-round-trip formatting);
//   - the streamed continuous query's pushed Answer(CQ) against the
//     in-process Continuous relation, including the notification stream:
//     after each relevant update the subscription must converge to the
//     in-process answer through server-push notifications alone.
//
// This lives in an external test package (query_test) because the server
// imports internal/query; the oracle itself only drives public APIs.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// canonRows renders presented rows as a sorted multiset key, mirroring
// wire.CanonicalAnswers for interval-free row sets.
func canonRows(rows [][]wire.Value) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

func TestLoopbackOracle(t *testing.T) {
	seeds := []int64{1, 2}
	ticks := temporal.Tick(80)
	if testing.Short() {
		seeds = []int64{1}
		ticks = 30
	}
	// The oracle runs at every protocol version: v2's full NOTIFYs and
	// v3's delta NOTIFYs applied client-side must both stay bit-identical
	// to in-process evaluation.
	for _, proto := range []int{2, 3} {
		for _, seed := range seeds {
			proto, seed := proto, seed
			t.Run(fmt.Sprintf("proto=%d/seed=%d", proto, seed), func(t *testing.T) {
				runLoopbackOracle(t, proto, seed, ticks)
			})
		}
	}
}

func runLoopbackOracle(t *testing.T, proto int, seed int64, ticks temporal.Tick) {
	const (
		nVehicles = 6
		horizon   = temporal.Tick(50)
	)
	spec := workload.FleetSpec{
		N:        nVehicles,
		Region:   geom.Rect{Max: geom.Point{X: 100, Y: 100}},
		MaxSpeed: 2,
		Seed:     seed,
	}
	regions := map[string]geom.Polygon{"P": geom.RectPolygon(20, 20, 70, 70)}
	opts := query.Options{Horizon: horizon, Regions: regions}

	servedDB, err := workload.Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	localDB, err := workload.Fleet(spec)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(servedDB, query.NewEngine(servedDB), server.Config{BaseOptions: opts})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.WithProtocol(proto))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Protocol(); got != proto {
		t.Fatalf("negotiated protocol %d, want %d", got, proto)
	}

	localEng := query.NewEngine(localDB)
	const cqSrc = `RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`
	const instSrc = `RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE ALWAYS FOR 10 DIST(o, n) <= 40`
	localCQ, err := localEng.Continuous(ftl.MustParse(cqSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer localCQ.Cancel()
	sub, err := c.Subscribe(cqSrc, horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// awaitCQ polls the subscription until its pushed answer matches the
	// in-process Answer(CQ) bit for bit; pump coalescing makes the exact
	// notification count nondeterministic, so convergence — not frame
	// count — is the contract.
	awaitCQ := func(tk temporal.Tick) uint64 {
		t.Helper()
		rel, err := localCQ.Answer()
		if err != nil {
			t.Fatalf("tick %d: local answer: %v", tk, err)
		}
		want := wire.CanonicalAnswers(wire.FromRelation(rel))
		deadline := time.After(10 * time.Second)
		for {
			ans, seq, err := sub.Answer()
			if err != nil {
				t.Fatalf("tick %d: remote answer: %v", tk, err)
			}
			if wire.CanonicalAnswers(ans) == want {
				return seq
			}
			select {
			case <-sub.Updates():
			case <-deadline:
				t.Fatalf("tick %d: remote Answer(CQ) never converged:\n  remote: %q\n  local:  %q",
					tk, wire.CanonicalAnswers(ans), want)
			}
		}
	}
	awaitCQ(0)

	rng := rand.New(rand.NewSource(seed * 7919))
	vid := func(i int) string { return fmt.Sprintf("car-%05d", i) }
	var lastSeq uint64

	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		if _, err := c.Advance(1); err != nil {
			t.Fatal(err)
		}
		localDB.Advance(1)

		// Identical update streams on both sides, at least one per tick.
		n := 1 + rng.Intn(2)
		for j := 0; j < n; j++ {
			id := rng.Intn(nVehicles)
			v := geom.Vector{X: (rng.Float64() - 0.5) * 4, Y: (rng.Float64() - 0.5) * 4}
			if rng.Intn(10) == 0 {
				v = geom.Vector{}
			}
			if err := c.SetMotion(vid(id), v.X, v.Y); err != nil {
				t.Fatal(err)
			}
			if err := localDB.SetMotion(most.ObjectID(vid(id)), v); err != nil {
				t.Fatal(err)
			}
		}

		// Instantaneous queries answer identically through the wire.
		now, remoteRows, err := c.Query(instSrc, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if now != localDB.Now() {
			t.Fatalf("tick %d: clocks diverged: remote %d, local %d", tk, now, localDB.Now())
		}
		localRows, err := localEng.Query(instSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonRows(remoteRows), canonRows(wireRows(localRows)); got != want {
			t.Fatalf("tick %d: instantaneous answers diverged:\n  remote: %q\n  local:  %q", tk, got, want)
		}

		// The streamed Answer(CQ) converges to the in-process one.
		lastSeq = awaitCQ(tk)
	}
	if lastSeq == 0 {
		t.Fatal("subscription saw no pushed notifications over the whole run")
	}
}

// wireRows converts engine rows to wire values for comparison.
func wireRows(rows []query.Row) [][]wire.Value {
	out := make([][]wire.Value, len(rows))
	for i, r := range rows {
		vals := make([]wire.Value, len(r))
		for j, v := range r {
			vals[j] = wire.FromVal(v)
		}
		out[i] = vals
	}
	return out
}

// TestLoopbackCityOracle runs the loopback oracle over a small city
// scenario (internal/city): a seeded road-network city is replayed in
// lockstep against a served and a local database, and every template of
// the city's query catalog is answered three ways — remote client, local
// engine, and a from-scratch naive evaluation — demanding bit-identical
// presented rows each tick.  Every continuous template is additionally
// subscribed remotely and must converge, through server-push
// notifications alone, to the local Answer(CQ) after each tick's updates.
func TestLoopbackCityOracle(t *testing.T) {
	ticks := temporal.Tick(12)
	if testing.Short() {
		ticks = 6
	}
	spec := city.Spec{
		Seed: 5, Cars: 60, Buses: 3,
		GridW: 6, GridH: 6, DistrictsX: 2, DistrictsY: 2, POIsPerDistrict: 1,
		Ticks: ticks, Horizon: 12,
	}
	cty, err := city.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	servedDB, err := cty.Database()
	if err != nil {
		t.Fatal(err)
	}
	localDB, err := cty.Database()
	if err != nil {
		t.Fatal(err)
	}
	cat := cty.Catalog()
	opts := query.Options{Horizon: spec.Horizon, Regions: cat.Regions}

	srv := server.New(servedDB, query.NewEngine(servedDB), server.Config{BaseOptions: opts})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	localEng := query.NewEngine(localDB)

	// naive is the definitional from-scratch evaluation on the local
	// database: fresh snapshot, no rewrite state, sequential.
	naive := func(src string) *eval.Relation {
		t.Helper()
		q := ftl.MustParse(src)
		ctx := &eval.Context{
			Now:     localDB.Now(),
			Horizon: spec.Horizon,
			Objects: most.NewSnapshot(localDB.Now(), localDB.Objects("")...),
			Regions: cat.Regions,
			Domains: map[string][]eval.Val{},
		}
		if err := ctx.BindDomains(q); err != nil {
			t.Fatalf("naive bind: %v", err)
		}
		rel, err := eval.EvalQuery(q, ctx)
		if err != nil {
			t.Fatalf("naive eval: %v", err)
		}
		return rel
	}
	naiveKey := func(src string) string {
		var rows [][]wire.Value
		for _, vals := range naive(src).At(localDB.Now()) {
			row := make([]wire.Value, len(vals))
			for j, v := range vals {
				row[j] = wire.FromVal(v)
			}
			rows = append(rows, row)
		}
		return canonRows(rows)
	}

	type cityCQ struct {
		tpl city.Template
		cq  *query.Continuous
		sub *client.Subscription
	}
	var cqs []cityCQ
	for _, tpl := range cat.Continuous() {
		cq, err := localEng.Continuous(ftl.MustParse(tpl.Src), opts)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		defer cq.Cancel()
		sub, err := c.Subscribe(tpl.Src, spec.Horizon)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		defer sub.Close()
		cqs = append(cqs, cityCQ{tpl, cq, sub})
	}
	awaitCity := func(tk temporal.Tick, e cityCQ) {
		t.Helper()
		rel, err := e.cq.Answer()
		if err != nil {
			t.Fatalf("tick %d: %s: local answer: %v", tk, e.tpl.Name, err)
		}
		want := wire.CanonicalAnswers(wire.FromRelation(rel))
		deadline := time.After(10 * time.Second)
		for {
			ans, _, err := e.sub.Answer()
			if err != nil {
				t.Fatalf("tick %d: %s: remote answer: %v", tk, e.tpl.Name, err)
			}
			if wire.CanonicalAnswers(ans) == want {
				return
			}
			select {
			case <-e.sub.Updates():
			case <-deadline:
				t.Fatalf("tick %d: CQ %s never converged:\n  remote: %q\n  local:  %q",
					tk, e.tpl.Name, wire.CanonicalAnswers(ans), want)
			}
		}
	}

	byTick := map[temporal.Tick][]workload.UpdateEvent{}
	for _, e := range cty.Events {
		byTick[e.Tick] = append(byTick[e.Tick], e)
	}
	lastVec := map[most.ObjectID]geom.Vector{}
	carStir := cty.Cars[0].ID
	busStir := most.ObjectID(cty.Buses[0].Plate)

	for tk := temporal.Tick(1); tk <= ticks; tk++ {
		if _, err := c.Advance(1); err != nil {
			t.Fatal(err)
		}
		localDB.Advance(1)

		// Identical update streams both sides, with per-class stirrers so
		// every continuous query re-anchors every tick (window alignment,
		// see internal/city's correctness oracle).
		evs := byTick[tk]
		carsTouched, busesTouched := false, false
		for _, e := range evs {
			lastVec[e.Object] = e.Vector
			if strings.HasPrefix(string(e.Object), "car-") {
				carsTouched = true
			} else {
				busesTouched = true
			}
		}
		if !carsTouched {
			evs = append(evs, workload.UpdateEvent{Object: carStir, Vector: lastVec[carStir]})
		}
		if !busesTouched {
			evs = append(evs, workload.UpdateEvent{Object: busStir, Vector: lastVec[busStir]})
		}
		for _, e := range evs {
			if err := c.SetMotion(string(e.Object), e.Vector.X, e.Vector.Y); err != nil {
				t.Fatal(err)
			}
			if err := localDB.SetMotion(e.Object, e.Vector); err != nil {
				t.Fatal(err)
			}
		}

		// Every instantaneous template answers identically three ways.
		for _, tpl := range cat.Instantaneous() {
			now, remoteRows, err := c.Query(tpl.Src, spec.Horizon)
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, tpl.Name, err)
			}
			if now != localDB.Now() {
				t.Fatalf("tick %d: clocks diverged: remote %d, local %d", tk, now, localDB.Now())
			}
			localRows, err := localEng.Query(tpl.Src, opts)
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, tpl.Name, err)
			}
			remote, local, want := canonRows(remoteRows), canonRows(wireRows(localRows)), naiveKey(tpl.Src)
			if remote != local || local != want {
				t.Fatalf("tick %d: %s diverged:\n  remote: %q\n  local:  %q\n  naive:  %q",
					tk, tpl.Name, remote, local, want)
			}
		}

		// Every continuous template: the local Answer(CQ) presents exactly
		// the naive rows, and the remote stream converges to the local
		// answer bit for bit.
		for _, e := range cqs {
			rows, err := e.cq.Current(localDB.Now())
			if err != nil {
				t.Fatalf("tick %d: %s: %v", tk, e.tpl.Name, err)
			}
			if got, want := canonRows(wireRows(rows)), naiveKey(e.tpl.Src); got != want {
				t.Fatalf("tick %d: CQ %s diverged from naive oracle:\n  engine: %q\n  naive:  %q",
					tk, e.tpl.Name, got, want)
			}
			awaitCity(tk, e)
		}
	}
}
