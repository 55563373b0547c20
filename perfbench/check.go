package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// The output checks compare what the served program returned with an
// in-process replica: the same city fed the same ops through the most
// package directly.

// replica returns the city's database with steps applied.
func replica(c *city.City, steps []step) (*most.Database, error) {
	db, err := cityDB(c)
	if err != nil {
		return nil, err
	}
	for _, st := range steps {
		if err := applyStep(db, st); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// checkQueries replays the stream on a replica and compares every kept
// answer with Engine.Query on the replica at the same tick.  It returns
// how many were checked, how many differed, and the replica fed the whole
// stream.
func checkQueries(e *env, steps []step, answers []queryAnswer) (int, int, *most.Database, error) {
	db, err := cityDB(e.c)
	if err != nil {
		return 0, 0, nil, err
	}
	eng := query.NewEngine(db)
	applied, bad := 0, 0
	for _, a := range answers {
		for ; applied <= a.step; applied++ {
			if err := applyStep(db, steps[applied]); err != nil {
				return 0, 0, nil, err
			}
		}
		tpl := e.qtpls[a.tpl]
		rows, err := eng.Query(tpl.Src, e.opts)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("replica query %s: %w", tpl.Name, err)
		}
		ev := make([][]eval.Val, len(rows))
		for i, r := range rows {
			ev[i] = r
		}
		if db.Now() != a.now || canonRows(wire.FromRows(ev)) != a.canon {
			bad++
			fmt.Fprintf(os.Stderr, "check: query %s at step %d (tick %d, replica %d) differs from the replica\n",
				tpl.Name, a.step, a.now, db.Now())
		}
	}
	for ; applied < len(steps); applied++ {
		if err := applyStep(db, steps[applied]); err != nil {
			return 0, 0, nil, err
		}
	}
	return len(answers), bad, db, nil
}

// presentAt canonicalizes the rows an answer presents at tick t.  A
// maintained answer keeps each row's interval from the tick its plan was
// anchored at, so the per-tick presentation is what a fresh registration
// must reproduce exactly.
func presentAt(ans []wire.AnswerRow, t temporal.Tick) string {
	return canonRows(wire.RowsAt(ans, t))
}

// checkCQs compares every subscription's final answer (after its pushes
// settle) with a fresh registration of the same query on a replica fed the
// whole stream.  It returns how many were checked and how many differed.
func checkCQs(e *env, db *most.Database) (int, int, error) {
	eng := query.NewEngine(db)
	now := db.Now()
	want := map[string]string{}
	srcs := append([]string{sentinelSrc()}, e.subSrc...)
	for _, src := range srcs {
		if _, ok := want[src]; ok {
			continue
		}
		cq, err := eng.Continuous(ftl.MustParse(src), e.opts)
		if err != nil {
			return 0, 0, fmt.Errorf("replica register: %w", err)
		}
		rel, err := cq.Answer()
		cq.Cancel()
		if err != nil {
			return 0, 0, fmt.Errorf("replica answer: %w", err)
		}
		want[src] = presentAt(wire.FromRelation(rel), now)
	}
	bad := 0
	deadline := time.Now().Add(30 * time.Second)
	for i, sub := range append([]*client.Subscription{e.sent}, e.subs...) {
		for {
			ans, _, err := sub.Answer()
			if err == nil && presentAt(ans, now) == want[srcs[i]] {
				break
			}
			if err != nil || time.Now().After(deadline) {
				bad++
				fmt.Fprintf(os.Stderr, "check: subscription %d (%s) never matched the replica: err=%v\n", i, srcs[i], err)
				break
			}
			select {
			case <-sub.Updates():
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return len(srcs), bad, nil
}

// restart aborts the durable server the way kill -9 would and recovers it
// from its data directory, n times; it returns the recovered server and
// the wall time of each Abort plus NewDurable.  The aborted incarnation's
// heap is collected between the two, outside the timing: a restarted
// process would not carry it.
func restart(srv *server.Server, dir string, opts query.Options, n int) (*server.Server, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		abort := timed(srv.Abort)
		srv = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		srv, _, err = server.NewDurable(dir, durableConfig(opts, obs.New()), nil)
		if err != nil {
			return nil, times, fmt.Errorf("recover: %w", err)
		}
		times = append(times, (abort + time.Since(t0)).Seconds())
	}
	return srv, times, nil
}

// checkRecovered compares the recovered database byte for byte with the
// replica's snapshot.
func checkRecovered(srv *server.Server, want []byte) (bool, error) {
	got, err := srv.DB().SnapshotJSON()
	if err != nil {
		return false, err
	}
	if !bytes.Equal(got, want) {
		fmt.Fprintf(os.Stderr, "check: recovered snapshot (%d bytes) differs from the replica (%d bytes)\n", len(got), len(want))
		return false, nil
	}
	return true, nil
}
