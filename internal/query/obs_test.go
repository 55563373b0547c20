package query

import (
	"encoding/json"
	"testing"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
)

// instrumentedScenario runs all three query types (§2.3) and a DIST join
// against a fully instrumented engine and database, whose grid index the
// first INSIDE query activates, and returns the registry.
func instrumentedScenario(t *testing.T) *obs.Registry {
	t.Helper()
	db, cls := testDB(t)
	reg := obs.New()
	db.Instrument(reg)
	e := NewEngine(db)
	e.Instrument(reg)

	for i := 0; i < 20; i++ {
		id := most.ObjectID(string(rune('a'+i)) + "-car")
		addCar(t, db, cls, id, geom.Point{X: float64(i * 3)}, geom.Vector{X: 1})
	}

	opts := Options{Horizon: 100, Regions: regionP()}

	// A DIST join whose far pairs the motion envelopes decide; run first,
	// so the INSIDE queries below leave the instantaneous trace.
	if _, err := e.Query(`RETRIEVE o, n FROM Vehicles o, Vehicles n WHERE DIST(o, n) <= 2`, Options{Horizon: 1}); err != nil {
		t.Fatal(err)
	}

	// Instantaneous, through the text entry point so the parse stage runs.
	// The first run finds the class unindexed, scans and activates the
	// index; the second probes it.
	for range 2 {
		if _, err := e.Query(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`, opts); err != nil {
			t.Fatal(err)
		}
	}

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE Eventually INSIDE(o, P)`)
	cq, err := e.Continuous(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Persistent(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A real motion update forces both registered queries to reevaluate,
	// and gives the persistent query a logged history to synthesize.
	db.Tick()
	if err := db.SetMotion("a-car", geom.Vector{X: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Current(db.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Current(); err != nil {
		t.Fatal(err)
	}
	cq.Cancel()
	pq.Cancel()
	return reg
}

// TestObsSnapshotSchema locks in the metrics schema BENCH_obs.json and the
// /obs endpoint serve: after one run of each query type, the snapshot holds
// the per-type counters and latency histograms, and every query type has a
// non-empty span tree with the expected stage children.
func TestObsSnapshotSchema(t *testing.T) {
	reg := instrumentedScenario(t)
	snap := reg.Snapshot()

	for _, c := range []string{
		"query.instantaneous",
		"query.continuous",
		"query.persistent",
		"query.continuous.full",
		"query.persistent.delta",
		"eval.subformulas",
		"eval.instantiations",
		"eval.dist_pruned",
		"index.snapshot_probes",
		"most.index.activations",
		"most.index.writes",
		"db.commits",
		"db.snapshots",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, snap.Counters[c])
		}
	}

	for _, h := range []string{
		"query.instantaneous_ns",
		"query.continuous_ns",
		"query.persistent_ns",
		"db.commit_ns",
		"index.candidates_per_probe",
	} {
		hs, ok := snap.Histograms[h]
		if !ok || hs.Count <= 0 {
			t.Errorf("histogram %q missing or empty (count=%d)", h, hs.Count)
		}
	}

	// Every query type must leave a non-empty span tree with its stages.
	stages := map[string][]string{
		"query.instantaneous": {"parse", "rewrite", "snapshot", "bind", "subformula_eval", "index_probe", "answer_assembly"},
		"query.continuous":    {"snapshot", "bind", "subformula_eval", "index_probe", "answer_assembly"},
		"query.persistent":    {"synthesize_history", "bind", "subformula_eval", "answer_assembly"},
		// The update's delta round synthesizes the updated object alone.
		"query.persistent.delta": {"synthesize_history"},
	}
	for root, want := range stages {
		tr, ok := snap.Traces[root]
		if !ok {
			t.Errorf("no trace for %q", root)
			continue
		}
		if len(tr.Children) == 0 {
			t.Errorf("trace %q has no children", root)
		}
		if tr.DurationNs <= 0 {
			t.Errorf("trace %q duration = %d, want > 0", root, tr.DurationNs)
		}
		for _, stage := range want {
			if _, ok := tr.Find(stage); !ok {
				t.Errorf("trace %q missing stage span %q", root, stage)
			}
		}
	}
	if tr, ok := snap.Traces["query.instantaneous"]; ok {
		if probe, found := tr.Find("index_probe"); found && probe.Attrs["candidates"] <= 0 {
			t.Errorf("index_probe candidates attr = %d, want > 0", probe.Attrs["candidates"])
		}
	}

	// The snapshot must round-trip as JSON — this is the wire schema of
	// /obs and the Snapshot field of BENCH_obs.json.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != len(snap.Counters) || len(back.Traces) != len(snap.Traces) {
		t.Errorf("JSON round-trip lost entries: counters %d->%d traces %d->%d",
			len(snap.Counters), len(back.Counters), len(snap.Traces), len(back.Traces))
	}
	// And the expvar String() form must itself be valid JSON of the schema.
	var fromString obs.Snapshot
	if err := json.Unmarshal([]byte(reg.String()), &fromString); err != nil {
		t.Fatalf("Registry.String() is not valid snapshot JSON: %v", err)
	}
}

// TestObsDetach verifies Instrument(nil) detaches cleanly: queries keep
// answering and the registry stops moving.
func TestObsDetach(t *testing.T) {
	db, cls := testDB(t)
	reg := obs.New()
	db.Instrument(reg)
	e := NewEngine(db)
	e.Instrument(reg)
	addCar(t, db, cls, "v1", geom.Point{X: 15}, geom.Vector{})

	q := ftl.MustParse(`RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)`)
	if _, err := e.Instantaneous(q, Options{Horizon: 50, Regions: regionP()}); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters["query.instantaneous"]
	if before != 1 {
		t.Fatalf("query.instantaneous = %d, want 1", before)
	}

	e.Instrument(nil)
	db.Instrument(nil)
	rows, err := e.Instantaneous(q, Options{Horizon: 50, Regions: regionP()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("detached query returned %d rows, want 1", len(rows))
	}
	if after := reg.Snapshot().Counters["query.instantaneous"]; after != before {
		t.Errorf("detached engine still counted: %d -> %d", before, after)
	}
}
