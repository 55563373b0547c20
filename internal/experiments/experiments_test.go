package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quickTables holds each experiment's quick table, computed once per test
// binary through the registry (Run): the shape tests and TestAllRender
// read the same table instead of running each experiment twice.
var quickTables = map[string]*Table{}

func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if tbl, ok := quickTables[id]; ok {
		return tbl
	}
	tables := Run(map[string]bool{id: true}, true)
	if len(tables) != 1 {
		t.Fatalf("Run(%s) returned %d tables", id, len(tables))
	}
	quickTables[id] = tables[0]
	return tables[0]
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q is not an integer: %v", s, err)
	}
	return n
}

func TestE1ShapeMatchesPaper(t *testing.T) {
	tbl := quickTable(t, "E1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Instantaneous and continuous stay empty throughout; persistent
	// becomes {o} at time 2 and stays.
	for i, r := range tbl.Rows {
		if r[2] != "{}" || r[3] != "{}" {
			t.Errorf("row %d: instantaneous/continuous = %s/%s, want empty", i, r[2], r[3])
		}
	}
	if tbl.Rows[0][4] != "{}" || tbl.Rows[1][4] != "{}" {
		t.Error("persistent should be empty before the doubling")
	}
	if tbl.Rows[2][4] != "{o}" || tbl.Rows[3][4] != "{o}" {
		t.Error("persistent should retrieve o from time 2 on")
	}
}

func TestE2VectorTrafficFarBelowPosition(t *testing.T) {
	tbl := quickTable(t, "E2")
	for _, r := range tbl.Rows {
		pos := atoiCell(t, r[3])
		vec := atoiCell(t, r[4])
		if vec*5 > pos {
			t.Errorf("n=%s rate=%s: vector msgs %d not well below position msgs %d", r[0], r[1], vec, pos)
		}
	}
}

func TestE3IndexBeatsScanAtScale(t *testing.T) {
	tbl := quickTable(t, "E3")
	last := tbl.Rows[len(tbl.Rows)-1]
	speedup := strings.TrimSuffix(last[4], "x")
	v, err := strconv.ParseFloat(speedup, 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 2 {
		t.Errorf("at the largest size the index should win clearly, got %sx", speedup)
	}
}

// TestE4SingleProbeBeatsPerTick checks §4's claim on counts, not on
// timings: one probe returns the answer as one tuple per object in range,
// while the h per-tick probes return an entry per tick each object is in
// range.
func TestE4SingleProbeBeatsPerTick(t *testing.T) {
	tbl := quickTable(t, "E4")
	for _, r := range tbl.Rows {
		tuples, entries := atoiCell(t, r[2]), atoiCell(t, r[3])
		if tuples == 0 || 2*entries < 3*tuples {
			t.Errorf("horizon %s: %d per-tick entries for %d answer tuples, want clearly above 1.5 per tuple", r[1], entries, tuples)
		}
	}
}

func TestE5EvaluationCounts(t *testing.T) {
	tbl := quickTable(t, "E5")
	for _, r := range tbl.Rows {
		ticks := atoiCell(t, r[1])
		updates := atoiCell(t, r[2])
		ce := atoiCell(t, r[3])
		ne := atoiCell(t, r[4])
		if ce != 1+updates {
			t.Errorf("continuous evals = %d, want %d", ce, 1+updates)
		}
		if ne != ticks {
			t.Errorf("per-tick evals = %d, want %d", ne, ticks)
		}
	}
}

func TestE6AlgorithmsAgreeAndDiverge(t *testing.T) {
	tbl := quickTable(t, "E6")
	if len(tbl.Rows) < 2 {
		t.Fatal("need at least two sizes")
	}
	// The pairwise/linear ratio should grow with size.
	first := strings.TrimSuffix(tbl.Rows[0][3], "x")
	lastR := strings.TrimSuffix(tbl.Rows[len(tbl.Rows)-1][3], "x")
	a, _ := strconv.ParseFloat(first, 64)
	b, _ := strconv.ParseFloat(lastR, 64)
	if b <= a {
		t.Errorf("pairwise/linear ratio should grow: %v -> %v", a, b)
	}
}

func TestE7Exactly2kQueries(t *testing.T) {
	tbl := quickTable(t, "E7")
	for _, r := range tbl.Rows {
		k := atoiCell(t, r[0])
		issued := atoiCell(t, r[1])
		if issued != 1<<k {
			t.Errorf("k=%d issued %d queries", k, issued)
		}
	}
}

func TestE9BroadcastCheaper(t *testing.T) {
	tbl := quickTable(t, "E9")
	for _, r := range tbl.Rows {
		shipB := atoiCell(t, r[3])
		bcastB := atoiCell(t, r[5])
		if bcastB >= shipB {
			t.Errorf("nodes=%s sel=%s: broadcast bytes %d >= ship %d", r[0], r[1], bcastB, shipB)
		}
		cShip := atoiCell(t, r[6])
		cBcast := atoiCell(t, r[7])
		if cBcast >= cShip {
			t.Errorf("continuous: broadcast bytes %d >= ship %d", cBcast, cShip)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tbl := quickTable(t, "E10")
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		im, de := tbl.Rows[i], tbl.Rows[i+1]
		imMsgs := atoiCell(t, im[4])
		deMsgs := atoiCell(t, de[4])
		if imMsgs >= deMsgs {
			t.Errorf("immediate msgs %d >= delayed %d", imMsgs, deMsgs)
		}
		// With unlimited memory and p=0, nothing is missed either way.
		if im[2] == "0.00" && atoiCell(t, im[6])+atoiCell(t, de[6]) != 0 {
			t.Error("misses at p=0")
		}
		// Delayed bounds memory below immediate-unlimited.
		if im[1] == "inf" {
			if atoiCell(t, de[7]) > atoiCell(t, im[7]) {
				t.Error("delayed peak memory should not exceed immediate-unlimited")
			}
		}
	}
}

func TestAllRender(t *testing.T) {
	for _, e := range registry {
		tbl := quickTable(t, e.ID)
		out := tbl.Render()
		if !strings.Contains(out, tbl.ID) || len(tbl.Rows) == 0 {
			t.Errorf("table %s renders badly or is empty", tbl.ID)
		}
	}
}

func TestE11MechanismsBeatScan(t *testing.T) {
	tbl := quickTable(t, "E11")
	last := tbl.Rows[len(tbl.Rows)-1]
	scan := parseDur(t, last[1])
	rtree := parseDur(t, last[2])
	grid := parseDur(t, last[3])
	if rtree >= scan || grid >= scan {
		t.Errorf("at the largest size both indexes should beat the scan: scan=%v rtree=%v grid=%v", scan, rtree, grid)
	}
}

func TestE12HorizonShape(t *testing.T) {
	tbl := quickTable(t, "E12")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Rebuild count falls and continuous reach grows as T grows; entries
	// scale linearly with T at fixed strip width.
	r0 := atoiCell(t, tbl.Rows[0][3])
	r2 := atoiCell(t, tbl.Rows[2][3])
	if r0 <= r2 {
		t.Errorf("rebuilds should fall with T: %d -> %d", r0, r2)
	}
	reach0 := atoiCell(t, tbl.Rows[0][7])
	reach2 := atoiCell(t, tbl.Rows[2][7])
	if reach0 >= reach2 {
		t.Errorf("continuous reach should grow with T: %d -> %d", reach0, reach2)
	}
	e0 := atoiCell(t, tbl.Rows[0][2])
	e2 := atoiCell(t, tbl.Rows[2][2])
	if e2 <= e0 {
		t.Errorf("entries should grow with T: %d -> %d", e0, e2)
	}
}

// parseDur parses the ns() rendering back to a duration for comparisons.
func parseDur(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	var unit string
	if _, err := fmt.Sscanf(s, "%f%s", &v, &unit); err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	switch unit {
	case "ns":
		return v
	case "us":
		return v * 1e3
	case "ms":
		return v * 1e6
	default:
		t.Fatalf("bad duration unit %q", s)
		return 0
	}
}

// TestE13FaultsRobustness asserts the robustness claims on the quick sweep:
// on every fault schedule the reliable paths lose no more than the legacy
// ones; the legacy paths demonstrably lose displays and updates; and the
// reliable paths lose nothing at all (the schedules are crafted so every
// display window outlasts the worst outage plus the retry backoff).
func TestE13FaultsRobustness(t *testing.T) {
	rep := FaultsBench(true)
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rep.Results {
		if r.ReliableMissed > r.LegacyImmMissed || r.ReliableMissed > r.LegacyDelMissed {
			t.Errorf("row %+v: reliable missed more than legacy", r)
		}
		if r.ReliableMissed != 0 {
			t.Errorf("row %+v: reliable missed %d displays", r, r.ReliableMissed)
		}
		if r.LegacyImmMissed == 0 || r.LegacyDelMissed == 0 {
			t.Errorf("row %+v: legacy delivery missed nothing under faults", r)
		}
		if r.ReliableUpdatesLost != 0 {
			t.Errorf("row %+v: reliable propagation lost %d updates", r, r.ReliableUpdatesLost)
		}
		if r.LegacyUpdatesLost == 0 {
			t.Errorf("row %+v: legacy propagation lost nothing under faults", r)
		}
		if r.StaleReliable != 0 {
			t.Errorf("row %+v: reliable picture marked %d answers stale", r, r.StaleReliable)
		}
		if r.StaleLegacy == 0 {
			t.Errorf("row %+v: legacy picture marked nothing stale", r)
		}
		if r.RecoveryNs <= 0 {
			t.Errorf("row %+v: no recovery measurement", r)
		}
	}
	if out := FaultsBench(true).Table().Render(); !strings.Contains(out, "E13") {
		t.Errorf("table renders badly:\n%s", out)
	}
}
