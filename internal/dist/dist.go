// Package dist simulates the mobile distributed architecture of §5.2–5.3:
// every object in the database "resides in the computer on the moving
// vehicle it represents, but nowhere else", nodes exchange messages over a
// simulated wireless network with disconnections, and queries are
// classified as self-referencing, object, or relationship queries, each
// with the processing strategies the paper describes.
package dist

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

// CostModel sizes the three kinds of payloads exchanged.
type CostModel struct {
	ObjectBytes int // one object's attributes + motion vector
	QueryBytes  int // a query text
	TupleBytes  int // one answer tuple
}

// DefaultCost is a plausible sizing: objects are bigger than tuples, which
// are bigger than nothing; query text is a few hundred bytes.
var DefaultCost = CostModel{ObjectBytes: 256, QueryBytes: 128, TupleBytes: 64}

// Counters accumulate network traffic.
type Counters struct {
	Messages int
	Bytes    int
	Dropped  int // messages lost to disconnection
}

func (c *Counters) send(bytes int) {
	c.Messages++
	c.Bytes += bytes
}

// Node is one mobile computer hosting exactly one object.
type Node struct {
	Object       *most.Object
	Disconnected bool
}

// Sim is the distributed system: a fleet of nodes, a clock, and a network.
// Queries may be issued from multiple goroutines concurrently; the clock,
// the traffic counters, and the disconnection coin-flips are guarded by one
// mutex.  Node registration (AddNode) is not concurrent with queries.
type Sim struct {
	Cost    CostModel
	Regions map[string]geom.Polygon

	mu    sync.Mutex // guards clock, net, rng
	net   Counters
	clock temporal.Tick
	nodes map[most.ObjectID]*Node
	order []most.ObjectID
	rng   *rand.Rand
	// PDisconnect is the per-delivery probability that the destination is
	// unreachable (§5.2: "it is possible that due to disconnection, an
	// object cannot continuously update its position").  Set it before
	// issuing queries.
	PDisconnect float64

	// obsv holds the pre-resolved observability instruments (see obs.go);
	// nil means uninstrumented.  Set via Instrument before issuing queries.
	obsv *simObs
}

// NewSim returns an empty simulation with the default cost model.
func NewSim(seed int64) *Sim {
	return &Sim{
		Cost:    DefaultCost,
		Regions: map[string]geom.Polygon{},
		nodes:   map[most.ObjectID]*Node{},
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now returns the simulation clock.
func (s *Sim) Now() temporal.Tick {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Advance moves the clock forward.
func (s *Sim) Advance(d temporal.Tick) temporal.Tick {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = s.clock.Add(d)
	return s.clock
}

// NetStats returns a snapshot of the accumulated traffic counters.
func (s *Sim) NetStats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// AddNode registers a mobile computer hosting the object.
func (s *Sim) AddNode(o *most.Object) (*Node, error) {
	if _, dup := s.nodes[o.ID()]; dup {
		return nil, fmt.Errorf("dist: node %s already exists", o.ID())
	}
	n := &Node{Object: o}
	s.nodes[o.ID()] = n
	s.order = append(s.order, o.ID())
	return n, nil
}

// Node returns the node hosting the object.
func (s *Sim) Node(id most.ObjectID) (*Node, bool) {
	n, ok := s.nodes[id]
	return n, ok
}

// Nodes returns all node ids in insertion order.
func (s *Sim) Nodes() []most.ObjectID { return s.order }

// deliver simulates one message of the given size to a destination node,
// applying the disconnection probability.  It reports delivery success.
// The message is charged to both the shared network counters and tc, the
// issuing query's private counters — concurrent queries therefore see only
// their own traffic in ObjectQueryResult.Traffic, while NetStats still
// aggregates everything.
func (s *Sim) deliver(dst *Node, bytes int, tc *Counters) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net.send(bytes)
	tc.send(bytes)
	if dst.Disconnected || s.rng.Float64() < s.PDisconnect {
		s.net.Dropped++
		tc.Dropped++
		s.obsv.sent(bytes, true)
		return false
	}
	s.obsv.sent(bytes, false)
	return true
}

// QueryClass is the taxonomy of §5.3.
type QueryClass uint8

// Query classes.
const (
	// SelfReferencing queries examine only the issuing object: "Will I
	// reach the point (a,b) in 3 minutes".
	SelfReferencing QueryClass = iota
	// ObjectQuery predicates are decided per object independently:
	// "Retrieve the objects that will reach the point (a,b) in 3 minutes".
	ObjectQuery
	// RelationshipQuery predicates need two or more objects: "Retrieve the
	// objects that will stay within 2 miles of each other ...".
	RelationshipQuery
)

func (qc QueryClass) String() string {
	switch qc {
	case SelfReferencing:
		return "self-referencing"
	case ObjectQuery:
		return "object"
	default:
		return "relationship"
	}
}

// Classify determines the §5.3 class of a query: by the number of object
// variables it ranges over, and whether the single variable is pinned to
// the issuer.
func Classify(q *ftl.Query, issuerBound bool) QueryClass {
	switch {
	case len(q.Bindings) >= 2:
		return RelationshipQuery
	case len(q.Bindings) == 1 && !issuerBound:
		return ObjectQuery
	default:
		return SelfReferencing
	}
}

// evalContext builds a context over an explicit object universe and binds
// every FROM variable of q to all of it.
func (s *Sim) evalContext(q *ftl.Query, objs []*most.Object, horizon temporal.Tick) *eval.Context {
	dom := make([]eval.Val, len(objs))
	for i, o := range objs {
		dom[i] = eval.ObjVal(o.ID())
	}
	ctx := &eval.Context{
		Now:     s.Now(),
		Horizon: horizon,
		Objects: most.NewSnapshot(s.Now(), objs...),
		Regions: s.Regions,
		Params:  map[string]eval.Val{},
		Domains: map[string][]eval.Val{},
	}
	for _, b := range q.Bindings {
		ctx.Domains[b.Var] = dom
	}
	return ctx
}

// SelfQuery answers a self-referencing query at the issuing node with no
// communication at all (§5.3: "self-referencing queries can be answered
// without any inter-computer communication").
func (s *Sim) SelfQuery(issuer most.ObjectID, q *ftl.Query, horizon temporal.Tick) (*eval.Relation, error) {
	n, ok := s.nodes[issuer]
	if !ok {
		return nil, fmt.Errorf("dist: no node %s", issuer)
	}
	return eval.EvalQuery(q, s.evalContext(q, []*most.Object{n.Object}, horizon))
}

// Strategy selects how an object query is processed (§5.3).
type Strategy uint8

// Object-query strategies.
const (
	// ShipObjects requests every node's object, then evaluates centrally:
	// "first is to request that the object of each mobile computer be sent
	// to M; then M processes the query."
	ShipObjects Strategy = iota
	// BroadcastQuery sends the query to all nodes; each evaluates locally
	// and only satisfying nodes reply: "the second approach is more
	// efficient since it processes the query in parallel."
	BroadcastQuery
)

// ObjectQueryResult carries the answer and the traffic it cost.  Traffic is
// accumulated per query as its messages are sent, so it stays correct when
// queries are issued concurrently (NetStats, by contrast, aggregates the
// whole simulation).
type ObjectQueryResult struct {
	Relation *eval.Relation
	Traffic  Counters
}

// RunObjectQuery processes an object query issued at issuer under the
// given strategy and returns the merged answer relation.
func (s *Sim) RunObjectQuery(issuer most.ObjectID, q *ftl.Query, horizon temporal.Tick, strat Strategy) (*ObjectQueryResult, error) {
	if len(q.Bindings) != 1 {
		return nil, fmt.Errorf("dist: object query must range over one variable, got %d", len(q.Bindings))
	}
	issuerNode, ok := s.nodes[issuer]
	if !ok {
		return nil, fmt.Errorf("dist: no node %s", issuer)
	}
	var traffic Counters

	switch strat {
	case ShipObjects:
		// Request + every node ships its object to the issuer.
		var universe []*most.Object
		for _, id := range s.order {
			n := s.nodes[id]
			if id != issuer {
				// The request reaches the remote node...
				if !s.deliver(n, s.Cost.QueryBytes, &traffic) {
					continue
				}
				// ...and its object ships back to the issuer.
				if !s.deliver(issuerNode, s.Cost.ObjectBytes, &traffic) {
					continue
				}
			}
			universe = append(universe, n.Object)
		}
		rel, err := eval.EvalQuery(q, s.evalContext(q, universe, horizon))
		if err != nil {
			return nil, err
		}
		return &ObjectQueryResult{Relation: rel, Traffic: traffic}, nil

	case BroadcastQuery:
		merged := eval.NewRelation(q.Targets...)
		for _, id := range s.order {
			n := s.nodes[id]
			if id != issuer {
				if !s.deliver(n, s.Cost.QueryBytes, &traffic) {
					continue
				}
			}
			// The node evaluates the predicate on its own object.
			rel, err := eval.EvalQuery(q, s.evalContext(q, []*most.Object{n.Object}, horizon))
			if err != nil {
				return nil, err
			}
			for _, tup := range rel.Tuples() {
				// Only satisfying nodes reply (one tuple message each).
				if id != issuer {
					if !s.deliver(issuerNode, s.Cost.TupleBytes, &traffic) {
						continue
					}
				}
				merged.Add(tup.Vals, tup.Times)
			}
		}
		return &ObjectQueryResult{Relation: merged, Traffic: traffic}, nil

	default:
		return nil, fmt.Errorf("dist: unknown strategy %d", strat)
	}
}

// RunRelationshipQuery ships every object to the issuing node and evaluates
// there: "the most efficient way to answer a relationship query is to send
// all the objects to a central location ... the computer issuing the
// query" (§5.3).
func (s *Sim) RunRelationshipQuery(issuer most.ObjectID, q *ftl.Query, horizon temporal.Tick) (*ObjectQueryResult, error) {
	issuerNode, ok := s.nodes[issuer]
	if !ok {
		return nil, fmt.Errorf("dist: no node %s", issuer)
	}
	var traffic Counters
	var universe []*most.Object
	for _, id := range s.order {
		n := s.nodes[id]
		if id != issuer {
			if !s.deliver(n, s.Cost.QueryBytes, &traffic) {
				continue
			}
			if !s.deliver(issuerNode, s.Cost.ObjectBytes, &traffic) {
				continue
			}
		}
		universe = append(universe, n.Object)
	}
	rel, err := eval.EvalQuery(q, s.evalContext(q, universe, horizon))
	if err != nil {
		return nil, err
	}
	return &ObjectQueryResult{Relation: rel, Traffic: traffic}, nil
}

// ContinuousTraffic compares the two strategies for a *continuous* object
// query over a stream of motion updates (§5.3): under ShipObjects the
// remote node must transmit its object on every change; under
// BroadcastQuery it "evaluates the predicate each time the object changes,
// and transmits [it] to M when the predicate is satisfied".
//
// updates maps node id -> number of motion changes during the observation
// window; satisfied reports whether a given change leaves the node's
// predicate satisfied.
func (s *Sim) ContinuousTraffic(q *ftl.Query, updates map[most.ObjectID]int, satisfied func(most.ObjectID, int) bool) (ship, broadcast Counters) {
	// Initial dissemination: one query message per node either way (under
	// ShipObjects it is the "send me your object" request).
	n := len(s.order)
	ship.Messages += n
	ship.Bytes += n * s.Cost.QueryBytes
	broadcast.Messages += n
	broadcast.Bytes += n * s.Cost.QueryBytes

	ids := make([]most.ObjectID, 0, len(updates))
	for id := range updates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for k := 0; k < updates[id]; k++ {
			// ShipObjects: every change ships the whole object.
			ship.Messages++
			ship.Bytes += s.Cost.ObjectBytes
			// BroadcastQuery: only satisfying states are reported.
			if satisfied(id, k) {
				broadcast.Messages++
				broadcast.Bytes += s.Cost.TupleBytes
			}
		}
	}
	return ship, broadcast
}
