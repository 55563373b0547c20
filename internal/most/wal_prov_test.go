package most

// Tests for the WAL features the durable server is built on: opaque note
// records, provenance-stamped mutations surfaced through WALObserver at
// replay, and RebaseWAL (snapshot-load over a live log).

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/temporal"
)

func TestWALNotesReplayOpaque(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	w := NewWAL(&buf)
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	insertCar(t, db, c, "car1", geom.Point{X: 1}, geom.Vector{X: 1})
	if err := w.AppendNote("req", []byte(`{"c":"alice","r":7}`)); err != nil {
		t.Fatal(err)
	}
	db.Advance(2)
	if err := w.AppendNote("req", []byte(`{"c":"alice","r":8}`)); err != nil {
		t.Fatal(err)
	}

	var notes []string
	got, rep, err := recoverLog(nil, bytes.NewReader(buf.Bytes()), int64(buf.Len()), &WALObserver{
		Note: func(tag string, data []byte) error {
			notes = append(notes, tag+":"+string(data))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatalf("unexpected truncation: %s", rep.Reason)
	}
	if len(notes) != 2 || notes[0] != `req:{"c":"alice","r":7}` || notes[1] != `req:{"c":"alice","r":8}` {
		t.Fatalf("notes = %q", notes)
	}
	if string(snap(t, got)) != string(snap(t, db)) {
		t.Fatal("notes changed replayed state")
	}
}

func TestWALProvSurfacedPerMutationAtReplay(t *testing.T) {
	var buf bytes.Buffer
	db, c := newTestDB(t)
	w := NewWAL(&buf)
	if err := db.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	insertCar(t, db, c, "car1", geom.Point{X: 1}, geom.Vector{X: 1})
	// One request, two ops, committed as one batch (as the server does).
	if err := db.Batch(func(tx *Tx) error {
		if err := tx.SetMotion("car1", geom.Vector{X: 2}, &Prov{Client: "alice", Req: 5, Op: 0}); err != nil {
			return err
		}
		return tx.SetStatic("car1", "PRICE", Float(42), &Prov{Client: "alice", Req: 5, Op: 1})
	}); err != nil {
		t.Fatal(err)
	}
	db.AdvanceProv(3, &Prov{Client: "bob", Req: 1, Op: 0})

	var seen []string
	got, _, err := recoverLog(nil, bytes.NewReader(buf.Bytes()), int64(buf.Len()), &WALObserver{
		Applied: func(p Prov, now temporal.Tick) {
			seen = append(seen, fmt.Sprintf("%s/%d/%d@%d", p.Client, p.Req, p.Op, now))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The unstamped insert is replayed but not surfaced; the three stamped
	// mutations are, in order, with the clock at application time.
	want := []string{"alice/5/0@0", "alice/5/1@0", "bob/1/0@3"}
	if len(seen) != len(want) {
		t.Fatalf("surfaced %q, want %q", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("surfaced[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
	if string(snap(t, got)) != string(snap(t, db)) {
		t.Fatal("provenance changed replayed state")
	}
}

func TestRebaseWALReplaysLoadedSnapshot(t *testing.T) {
	// World A runs for a while on a WAL; then its database is replaced
	// wholesale by world B (the SnapshotLoad path).  RebaseWAL must leave
	// the log replaying to exactly B's state — the pre-load records are
	// dead weight behind the reset record.
	var buf bytes.Buffer
	dbA, cA := newTestDB(t)
	w := NewWAL(&buf)
	if err := dbA.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	buildScript(t, dbA, cA)

	dbB, cB := newTestDB(t)
	insertCar(t, dbB, cB, "fresh", geom.Point{X: 7, Y: 7}, geom.Vector{Y: -1})
	dbB.Advance(11)

	moved := dbA.DetachWAL()
	if moved != w {
		t.Fatal("DetachWAL returned a different handle")
	}
	if err := dbB.RebaseWAL(moved); err != nil {
		t.Fatal(err)
	}
	// Post-rebase traffic lands in the same log.
	if err := dbB.SetMotion("fresh", geom.Vector{X: 4}); err != nil {
		t.Fatal(err)
	}
	dbB.Advance(2)

	got, rep, err := Recover(nil, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatalf("unexpected truncation: %s", rep.Reason)
	}
	if string(snap(t, got)) != string(snap(t, dbB)) {
		t.Fatal("replay after rebase does not match the loaded database")
	}
	if _, ok := got.Get("car1"); ok {
		t.Fatal("pre-rebase object survived the reset record")
	}
}
