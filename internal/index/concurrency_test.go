package index

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
)

// lineAttr builds a linear dynamic attribute v(t) = v0 + slope*(t - 0).
func lineAttr(v0, slope float64) motion.DynamicAttr {
	f, err := motion.NewFunc(motion.Piece{Start: 0, Slope: slope})
	if err != nil {
		panic(err)
	}
	return motion.DynamicAttr{Value: v0, UpdateTime: 0, Function: f}
}

// entry is one object the concurrent-probe tests load.
type entry struct {
	id   most.ObjectID
	attr motion.DynamicAttr
}

// TestAttrIndexConcurrentProbes loads objects one Insert at a time while
// probe goroutines hammer the read paths; run under -race this exercises
// the RWMutex discipline, and the final state must match a sequential load.
func TestAttrIndexConcurrentProbes(t *testing.T) {
	const n = 500
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = entry{most.ObjectID(fmt.Sprintf("obj-%04d", i)), lineAttr(float64(i%100), 0.5)}
	}

	ix := NewAttrIndex(0, 256)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ix.InstantQuery(10, 40, 16)
				ix.Candidates(0, 200, 0, 255)
				ix.ContinuousQuery(25, 75, 0)
				_ = ix.Len()
				_ = ix.TreeHeight()
			}
		}()
	}
	for _, e := range entries {
		if err := ix.Insert(e.id, e.attr); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	close(done)
	wg.Wait()

	want := NewAttrIndex(0, 256)
	for _, e := range entries {
		if err := want.Insert(e.id, e.attr); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	got := ix.InstantQuery(10, 40, 16)
	exp := want.InstantQuery(10, 40, 16)
	if len(got) != len(exp) {
		t.Fatalf("InstantQuery after the concurrent load: got %d ids, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("InstantQuery mismatch at %d: %s vs %s", i, got[i], exp[i])
		}
	}
}

// TestMotionIndexConcurrentProbes does the same for the 3-d motion index.
func TestMotionIndexConcurrentProbes(t *testing.T) {
	const n = 300
	ids := make([]most.ObjectID, n)
	positions := make([]motion.Position, n)
	for i := range ids {
		ids[i] = most.ObjectID(fmt.Sprintf("car-%04d", i))
		positions[i] = motion.MovingFrom(geom.Point{X: float64(i % 50), Y: float64(i % 30)}, geom.Vector{X: 1, Y: 0.5}, 0)
	}

	ix := NewMotionIndex(0, 256)
	rect := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 60, Y: 40}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ix.CandidatesInRect(rect, 0, 100)
				_ = ix.Len()
			}
		}()
	}
	for i, id := range ids {
		if err := ix.Insert(id, positions[i]); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}

	want := NewMotionIndex(0, 256)
	for i, id := range ids {
		if err := want.Insert(id, positions[i]); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	got := ix.CandidatesInRect(rect, 0, 100)
	exp := want.CandidatesInRect(rect, 0, 100)
	if len(got) != len(exp) {
		t.Fatalf("CandidatesInRect after the concurrent load: got %d ids, want %d", len(got), len(exp))
	}
}

// TestGridIndexConcurrentProbes covers the grid variant.
func TestGridIndexConcurrentProbes(t *testing.T) {
	const n = 400
	entries := make([]entry, n)
	for i := range entries {
		entries[i] = entry{most.ObjectID(fmt.Sprintf("g-%04d", i)), lineAttr(float64(i%100), 0.25)}
	}
	g := NewGridIndex(0, 256, 0, 300, 32, 32)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g.InstantQuery(10, 60, 32)
				g.ContinuousQuery(20, 80, 0)
				_ = g.Len()
			}
		}()
	}
	for _, e := range entries {
		if err := g.Insert(e.id, e.attr); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	close(done)
	wg.Wait()

	want := NewGridIndex(0, 256, 0, 300, 32, 32)
	for _, e := range entries {
		if err := want.Insert(e.id, e.attr); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	got := g.InstantQuery(10, 60, 32)
	exp := want.InstantQuery(10, 60, 32)
	if len(got) != len(exp) {
		t.Fatalf("InstantQuery after the concurrent load: got %d, want %d", len(got), len(exp))
	}
}
