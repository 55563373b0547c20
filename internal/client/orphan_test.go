package client

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

func answerRow(obj string, start, end int) wire.AnswerRow {
	return wire.AnswerRow{Vals: []wire.Value{{Kind: 1, Obj: obj}}, Start: temporal.Tick(start), End: temporal.Tick(end)}
}

// fakeOrphanServer accepts one connection, negotiates version, waits for n
// SUBSCRIBE requests, and then — before answering any of them — pushes two
// NOTIFYs per subscription: seq 1 (full answer a1) and seq 2 (a2; full at
// version 2, a delta against seq 1 at version 3).  Only then does it send
// the n SubscribeResps (initial answer a0).  Every notify therefore beats
// its SubscribeResp and is buffered by the client as an orphan.
func fakeOrphanServer(t *testing.T, version uint8, n int, a0, a1, a2 []wire.AnswerRow) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := wire.NewDecoder(conn, 0)
		hello, err := dec.Next()
		if err != nil {
			return
		}
		resp, _ := wire.EncodeFrame(wire.MinProtocolVersion, wire.OpResult, hello.ID, &wire.HelloResp{Server: "fake", Version: int(version)})
		wire.WriteFrame(conn, resp)
		dec.SetVersion(version)
		var ids []uint64
		for len(ids) < n {
			f, err := dec.Next()
			if err != nil {
				return
			}
			if f.Op == wire.OpSubscribe {
				ids = append(ids, f.ID)
			}
		}
		send := func(op wire.Opcode, id uint64, payload any) {
			f, err := wire.EncodeFrame(version, op, id, payload)
			if err != nil {
				panic(err)
			}
			wire.WriteFrame(conn, f)
		}
		for i := range ids {
			send(wire.OpNotify, 0, &wire.Notify{SubID: uint64(i + 1), Seq: 1, Answer: a1})
		}
		for i := range ids {
			n := &wire.Notify{SubID: uint64(i + 1), Seq: 2, Answer: a2}
			if version >= wire.ProtocolV3 {
				// a1 -> a2: car-2 leaves, car-3 changes, car-4 arrives.
				n = &wire.Notify{SubID: uint64(i + 1), Seq: 2, Delta: true, Base: 1,
					Gone: [][]wire.Value{a1[1].Vals}, Answer: []wire.AnswerRow{a2[1], a2[2]}}
			}
			send(wire.OpNotify, 0, n)
		}
		for i, id := range ids {
			send(wire.OpResult, id, &wire.SubscribeResp{SubID: uint64(i + 1), Answer: a0})
		}
		// Hold the connection open until the client closes it.
		for {
			if _, err := dec.Next(); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestOrphanNotifiesKeepOrder is the regression test for notifies that
// beat their SubscribeResp: with more than 64 subscriptions racing (the
// old orphan buffer's limit), every subscription must still end on the
// newest answer at seq 2 — a stale orphan must never win over a newer one,
// and a delta chain must be applied in order.
func TestOrphanNotifiesKeepOrder(t *testing.T) {
	a0 := []wire.AnswerRow{answerRow("car-1", 0, 5)}
	a1 := []wire.AnswerRow{answerRow("car-1", 0, 5), answerRow("car-2", 1, 2), answerRow("car-3", 0, 9)}
	a2 := []wire.AnswerRow{answerRow("car-1", 0, 5), answerRow("car-3", 0, 4), answerRow("car-4", 2, 3)}
	for _, version := range []uint8{wire.ProtocolV2, wire.ProtocolV3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			const n = 100
			addr := fakeOrphanServer(t, version, n, a0, a1, a2)
			c, err := Dial(addr, WithTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			subs := make([]*Subscription, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range subs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					subs[i], errs[i] = c.Subscribe(fmt.Sprintf("RETRIEVE o FROM Vehicles o WHERE TRUE -- %d", i), 0)
				}(i)
			}
			wg.Wait()
			for i, sub := range subs {
				if errs[i] != nil {
					t.Fatalf("subscribe %d: %v", i, errs[i])
				}
				rows, seq, err := sub.Answer()
				if err != nil || seq != 2 || !reflect.DeepEqual(rows, a2) {
					t.Fatalf("subscription %d ended at seq %d with %v (err %v), want seq 2 with %v", i, seq, rows, err, a2)
				}
			}
			c.mu.Lock()
			left := len(c.orphans)
			c.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d orphan queues left after every subscription claimed its own", left)
			}
		})
	}
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
