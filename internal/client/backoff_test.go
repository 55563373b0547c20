package client

// White-box tests for the retry/reconnect backoff schedule, the
// subscription resume reconciliation and the delta base check — the
// pieces of self-healing with arithmetic worth pinning down in isolation.

import (
	mathrand "math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

func backoffClient(base, max time.Duration) *Client {
	return &Client{
		backoff:    base,
		maxBackoff: max,
		jitter:     mathrand.New(mathrand.NewSource(1)),
	}
}

// Regression test for the unbounded shift the old retry loop used
// (c.backoff << (attempt-1)): by attempt 64 that is zero or negative and
// either panics the jitter draw or spins with no pause at all.  The
// schedule must stay positive and capped for any attempt count.
func TestBackoffDelayCappedAtAnyAttempt(t *testing.T) {
	base, max := 10*time.Millisecond, 2*time.Second
	c := backoffClient(base, max)
	ceiling := max + max/4 // cap plus the +25% jitter allowance
	for _, attempt := range []int{1, 2, 3, 10, 31, 63, 64, 65, 100, 1 << 20} {
		d := c.backoffDelay(attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %s (shift overflow)", attempt, d)
		}
		if d > ceiling {
			t.Fatalf("attempt %d: delay %s above cap %s", attempt, d, ceiling)
		}
	}
}

func TestBackoffDelayGrowsExponentiallyWithJitter(t *testing.T) {
	base, max := 8*time.Millisecond, time.Second
	c := backoffClient(base, max)
	for attempt := 1; attempt <= 6; attempt++ {
		want := base << (attempt - 1) // well below the cap for these attempts
		d := c.backoffDelay(attempt)
		if d < want-want/4 || d > want+want/4 {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, d, want-want/4, want+want/4)
		}
	}
}

func TestBackoffDelayDeterministicPerSeed(t *testing.T) {
	a := backoffClient(5*time.Millisecond, time.Second)
	b := backoffClient(5*time.Millisecond, time.Second)
	for attempt := 1; attempt <= 10; attempt++ {
		if da, db := a.backoffDelay(attempt), b.backoffDelay(attempt); da != db {
			t.Fatalf("attempt %d: same seed diverged: %s vs %s", attempt, da, db)
		}
	}
}

func row(val float64, start, end int64) wire.AnswerRow {
	return wire.AnswerRow{
		Vals:  []wire.Value{{Num: val}},
		Start: temporal.Tick(start),
		End:   temporal.Tick(end),
	}
}

func testSub(answer []wire.AnswerRow, seq uint64) *Subscription {
	return &Subscription{
		answer:  answer,
		seq:     seq,
		updates: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

func signaled(s *Subscription) bool {
	select {
	case <-s.updates:
		return true
	default:
		return false
	}
}

// An unchanged answer at resume must be suppressed — the consumer sees no
// duplicate notification — while the sequence rebases so the fresh
// registration's counter (restarting at zero) continues the old stream.
func TestResumeReconcileSuppressesUnchangedAnswer(t *testing.T) {
	ans := []wire.AnswerRow{row(1, 0, 10)}
	s := testSub(ans, 5)

	rows, changed := s.resumeReconcile([]wire.AnswerRow{row(1, 0, 10)})
	if changed || rows != 0 {
		t.Fatalf("identical answer reported as change: rows=%d changed=%v", rows, changed)
	}
	if signaled(s) {
		t.Fatal("duplicate notification delivered for an unchanged resume answer")
	}
	if _, seq, _ := s.Answer(); seq != 5 {
		t.Fatalf("seq moved to %d on a suppressed resume", seq)
	}

	// The re-registration's first real notification (server seq 1) must
	// land at exactly seq+1: gap-free continuation.
	s.deliver(wire.Notify{Seq: 1, Answer: []wire.AnswerRow{row(2, 0, 10)}})
	if _, seq, _ := s.Answer(); seq != 6 {
		t.Fatalf("post-resume delivery landed at seq %d, want 6", seq)
	}
	if !signaled(s) {
		t.Fatal("real post-resume change not signaled")
	}
}

// A changed answer at resume is one gap-free step: everything missed
// during the outage arrives as a single transition at seq+1.
func TestResumeReconcileInstallsChangedAnswer(t *testing.T) {
	s := testSub([]wire.AnswerRow{row(1, 0, 10)}, 5)

	next := []wire.AnswerRow{row(2, 0, 10), row(3, 5, 10)}
	rows, changed := s.resumeReconcile(next)
	if !changed || rows != len(next) {
		t.Fatalf("changed answer not installed: rows=%d changed=%v", rows, changed)
	}
	if !signaled(s) {
		t.Fatal("changed resume answer not signaled")
	}
	ans, seq, _ := s.Answer()
	if seq != 6 {
		t.Fatalf("resume transition at seq %d, want 6", seq)
	}
	if wire.CanonicalAnswers(ans) != wire.CanonicalAnswers(next) {
		t.Fatal("installed answer differs from resume answer")
	}

	// A stale notification from the dead registration (server seq ≤ the
	// rebased offset) must not regress the stream.
	s.deliver(wire.Notify{Seq: 0, Answer: []wire.AnswerRow{row(9, 0, 1)}})
	if got, seq, _ := s.Answer(); seq != 6 || wire.CanonicalAnswers(got) != wire.CanonicalAnswers(next) {
		t.Fatal("stale pre-resume notification regressed the stream")
	}
	s.deliver(wire.Notify{Seq: 1, Answer: []wire.AnswerRow{row(4, 0, 10)}})
	if _, seq, _ := s.Answer(); seq != 7 {
		t.Fatalf("next delivery landed at seq %d, want 7", seq)
	}
}

func answerRow(obj string, start, end int) wire.AnswerRow {
	return wire.AnswerRow{Vals: []wire.Value{{Kind: 1, Obj: obj}}, Start: temporal.Tick(start), End: temporal.Tick(end)}
}

// A delta whose base is not the held answer is refused, not applied.
func TestDeliverRefusesForeignBase(t *testing.T) {
	s := &Subscription{updates: make(chan struct{}, 1), answer: []wire.AnswerRow{answerRow("a", 0, 1)}}
	if s.deliver(wire.Notify{Seq: 2, Delta: true, Base: 1, Answer: []wire.AnswerRow{answerRow("b", 0, 1)}}) {
		t.Fatal("delta based on seq 1 applied to the answer at seq 0")
	}
	if !s.deliver(wire.Notify{Seq: 1, Delta: true, Base: 0, Answer: []wire.AnswerRow{answerRow("b", 0, 1)}}) {
		t.Fatal("delta based on the held answer refused")
	}
	rows, seq, _ := s.Answer()
	if want := []wire.AnswerRow{answerRow("a", 0, 1), answerRow("b", 0, 1)}; seq != 1 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("answer %v at seq %d, want %v at 1", rows, seq, want)
	}
}
