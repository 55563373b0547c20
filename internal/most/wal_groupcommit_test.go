package most

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/mostdb/most/internal/temporal"
)

// gatedWriter lets a test hold a WAL leader inside Write while followers
// stage behind it: each Write signals entered, then blocks until the test
// sends on proceed.
type gatedWriter struct {
	mu      sync.Mutex
	writes  [][]byte
	entered chan struct{}
	proceed chan error
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}, 16), proceed: make(chan error, 16)}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	err := <-g.proceed
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	return len(p), nil
}

// Appends that arrive while a leader is writing must coalesce into one
// follow-up batch: 1+N concurrent appends through a gated writer take
// exactly two Write calls, and the log still carries every record in
// commit (seq) order.
func TestWALGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	const followers = 8
	g := newGatedWriter()
	w := NewWAL(g)

	leaderDone := make(chan struct{})
	go func() {
		w.append(&walRecord{kind: recClock, now: 1})
		close(leaderDone)
	}()
	<-g.entered // leader is inside Write with the first record

	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.append(&walRecord{kind: recClock, now: 1})
		}()
	}
	// Wait until every follower has staged its record behind the leader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		staged := len(logFrames(t, w.staging))
		w.mu.Unlock()
		if staged == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers staged", staged, followers)
		}
		time.Sleep(time.Millisecond)
	}

	g.proceed <- nil // release the leader's batch
	<-g.entered      // leader starts the coalesced follow-up batch
	g.proceed <- nil
	wg.Wait()
	<-leaderDone
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.writes) != 2 {
		t.Fatalf("got %d Write calls, want 2 (leader batch + coalesced batch)", len(g.writes))
	}
	if n := len(logFrames(t, g.writes[0])); n != 1 {
		t.Fatalf("leader batch carries %d records, want 1", n)
	}
	if n := len(logFrames(t, g.writes[1])); n != followers {
		t.Fatalf("coalesced batch carries %d records, want %d", n, followers)
	}
	// Group commit must preserve commit order: records appear in seq order.
	all := append(append([]byte(nil), g.writes[0]...), g.writes[1]...)
	var wantSeq uint64
	for _, frame := range logFrames(t, all) {
		rec, err := decodeRecord(frame[frameHeader:], nil)
		if err != nil {
			t.Fatalf("bad record %x: %v", frame, err)
		}
		wantSeq++
		if rec.seq != wantSeq {
			t.Fatalf("record out of order: seq %d at position %d", rec.seq, wantSeq)
		}
	}
}

// A failed batch write must fail the leader and every staged follower —
// nobody deadlocks waiting for a flush that will never come — and the
// error is sticky.
func TestWALGroupCommitWriteErrorWakesFollowers(t *testing.T) {
	g := newGatedWriter()
	w := NewWAL(g)

	leaderDone := make(chan struct{})
	go func() {
		w.append(&walRecord{kind: recClock, now: 1})
		close(leaderDone)
	}()
	<-g.entered

	followerDone := make(chan struct{})
	go func() {
		w.append(&walRecord{kind: recClock, now: 1})
		close(followerDone)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		staged := len(logFrames(t, w.staging))
		w.mu.Unlock()
		if staged == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never staged")
		}
		time.Sleep(time.Millisecond)
	}

	g.proceed <- errors.New("disk gone")
	select {
	case <-leaderDone:
	case <-time.After(5 * time.Second):
		t.Fatal("leader did not return after write error")
	}
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower deadlocked on a flush that will never happen")
	}
	if w.Err() == nil {
		t.Fatal("write error not sticky")
	}
	// Subsequent appends are dropped, not deadlocked.
	w.append(&walRecord{kind: recClock, now: 2})
}

func BenchmarkWALAppendSerial(b *testing.B) {
	w := NewWAL(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.append(&walRecord{kind: recClock, now: temporal.Tick(1)})
	}
}

// BenchmarkWALAppendParallel measures the group-commit path under
// contention: without coalescing every append is one Write syscall;
// with it, concurrent appends share batches.
func BenchmarkWALAppendParallel(b *testing.B) {
	w := NewWAL(io.Discard)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w.append(&walRecord{kind: recClock, now: temporal.Tick(1)})
		}
	})
}
