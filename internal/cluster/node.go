package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
)

// Node is one cluster member: the glue between a server.Server and the
// zone map.  It implements server.ClusterHooks — the server calls in on
// its session goroutines to route ops (naming the owner of each op it
// does not own), apply incoming handoffs, and scan for zone exits after
// each commit.
//
// # Ownership and the version fence
//
// Possession is ownership: a node owns every partitioned-class object in
// its database, whatever the object's current position says (the position
// may have drifted out; the object still belongs here until a handoff
// completes).  A handoff transfers exactly that: the sender freezes the
// object, sends its motion record with version fence[id]+1, and deletes
// its copy only after the receiver acknowledges.  The receiver accepts
// when the version beats its own fence for the id — insert re-derives all
// in-flight continuous-query state from the node's registered plans — and
// otherwise acknowledges a duplicate without re-applying.  Fences and
// tombstones are in-memory; what makes exactly-once survive a crash is
// the durable layer underneath (OpHandoff is a mutating request, so the
// receiver's WAL carries a receipt per transfer and a crashed receiver
// re-acknowledges retries without re-applying) plus bounce-healing: a
// recovered node that finds a stale copy re-hands it toward the zone
// owner, where the live copy's higher fence rejects it as a duplicate and
// the stale copy is released.
//
// # In-doubt transfers
//
// A transfer whose acknowledgement never arrives is in doubt: the
// receiver may or may not have applied it.  The object must not accept
// writes in that state — if the receiver did apply, a later duplicate
// acknowledgement releases this copy, and any write it took in between
// would vanish.  So the object stays frozen (writes bounce with a
// retryable code) and the transfer parks in the pending set, which a
// background loop re-offers until the receiver answers.  The same
// discipline covers crash amnesia: recovery wipes fences and the pending
// set, so Quarantine re-freezes every out-of-zone object a recovered
// node still holds and parks it as an in-doubt transfer to the zone
// owner.  The receiver side completes the argument: it acknowledges a
// stale version as a duplicate only while it actually possesses the
// object (possession is what makes the release safe); a stale offer it
// cannot vouch for is accepted instead — the offer is the only live copy.
type Node struct {
	name string // this node's advertised address (zone map key)

	srv *server.Server
	zm  atomic.Pointer[ZoneMap]

	mu     sync.Mutex
	fences map[string]uint64   // highest handoff version seen per object
	tomb   map[string]string   // departed object -> address it went to
	frozen map[string]bool     // mid-handoff: reject writes, retryable
	pend   map[string]pendXfer // in-doubt transfers, still frozen

	pmu   sync.Mutex
	peers map[string]*client.Client
	nonce string // per-boot peer identity suffix
	dial  func(addr string) (net.Conn, error)

	retryStop chan struct{}
	retryOnce sync.Once
	retryWG   sync.WaitGroup

	handoffsOut atomic.Uint64
	handoffsIn  atomic.Uint64
	handoffDups atomic.Uint64
	bounces     atomic.Uint64
}

// pendXfer is one outbound transfer; parked in the pending set, it is in
// doubt: sent, never acknowledged.  The object stays frozen until the
// retry loop gets an answer.
type pendXfer struct {
	id   string
	ver  uint64
	doc  []byte
	dest string
}

// NewNode returns an unbound node; Bind attaches it to a server and
// database once they exist (the server config needs the node first).
// nonce distinguishes this boot's peer sessions from a previous
// incarnation's, so retried request IDs never collide with recovered
// receipts that belong to the old process.
func NewNode(nonce string, dial func(addr string) (net.Conn, error)) *Node {
	return &Node{
		fences:    map[string]uint64{},
		tomb:      map[string]string{},
		frozen:    map[string]bool{},
		pend:      map[string]pendXfer{},
		peers:     map[string]*client.Client{},
		nonce:     nonce,
		dial:      dial,
		retryStop: make(chan struct{}),
	}
}

// Bind attaches the node to its server and advertised address.  Must be
// called before the server starts serving.  The database is always read
// through the server (srv.DB()), so a durable restart or snapshot swap
// never leaves the node holding a stale pointer.
func (n *Node) Bind(srv *server.Server, addr string) {
	n.srv = srv
	n.name = addr
	n.retryWG.Add(1)
	go n.retryLoop()
}

// retryLoop re-offers in-doubt transfers until each gets an answer.  It
// runs between barriers on purpose: resolution must not wait for the
// next rebalance, or a frozen object would bounce writes for a whole
// tick after the partition heals.
func (n *Node) retryLoop() {
	defer n.retryWG.Done()
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-n.retryStop:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		byDest := map[string][]pendXfer{}
		for _, p := range n.pend {
			byDest[p.dest] = append(byDest[p.dest], p)
		}
		n.mu.Unlock()
		for dest, xs := range byDest {
			for len(xs) > 0 {
				select {
				case <-n.retryStop:
					return
				default:
				}
				batch := xs[:min(len(xs), maxHandoffBatch)]
				xs = xs[len(batch):]
				n.send(batch, dest)
			}
		}
	}
}

// Install publishes the zone map the node routes by.
func (n *Node) Install(zm *ZoneMap) { n.zm.Store(zm) }

// Name returns the node's advertised address.
func (n *Node) Name() string { return n.name }

// Stats returns the node's handoff counters: sent, received, duplicate
// acknowledgements, and bounce-healed stale copies.
func (n *Node) Stats() (out, in, dups, bounces uint64) {
	return n.handoffsOut.Load(), n.handoffsIn.Load(), n.handoffDups.Load(), n.bounces.Load()
}

// Prune deletes every partitioned-class object whose position at the
// current tick falls outside this node's zones — the bootstrap step that
// turns a full seed world into this node's shard.  Replicated classes are
// kept whole.  Only valid on a fresh node: a recovered node must keep
// out-of-zone objects (it still owns them) and rebalance them via
// handoff instead.
func (n *Node) Prune() error {
	zm := n.zm.Load()
	if zm == nil {
		return errors.New("cluster: prune before zone map installed")
	}
	now := n.srv.DB().Now()
	for _, o := range n.srv.DB().Objects("") {
		if zm.IsReplicated(o.Class().Name()) {
			continue
		}
		p, err := o.PositionAt(now)
		if err != nil {
			continue
		}
		if zm.OwnerAt(p) != n.name {
			if err := n.srv.DB().Delete(o.ID()); err != nil {
				return fmt.Errorf("cluster: prune %s: %w", o.ID(), err)
			}
		}
	}
	return nil
}

// ---- server.ClusterHooks ----

// RouteOp classifies one update op for the ownership gate.
func (n *Node) RouteOp(op *wire.UpdateOp) (string, bool, bool) {
	zm := n.zm.Load()
	if zm == nil {
		return "", true, false // not yet clustered: apply everything
	}
	n.mu.Lock()
	if n.frozen[op.ID] {
		n.mu.Unlock()
		return "", false, true
	}
	tombAddr, departed := n.tomb[op.ID]
	n.mu.Unlock()
	if _, ok := n.srv.DB().Get(most.ObjectID(op.ID)); ok {
		return "", true, false // possession is ownership
	}
	if departed {
		return tombAddr, false, false
	}
	if op.Op == wire.OpInsert {
		// A fresh insert routes by the position encoded in the object.
		if o, err := most.DecodeObject(n.srv.DB(), op.Object); err == nil {
			if zm.IsReplicated(o.Class().Name()) {
				return "", true, false
			}
			if p, err := o.PositionAt(n.srv.DB().Now()); err == nil {
				if owner := zm.OwnerAt(p); owner != "" && owner != n.name {
					return owner, false, false
				}
			}
		}
	}
	// Unknown object with no forwarding address: apply locally so the
	// client sees the database's own (deterministic) unknown-object error
	// instead of a routing loop.
	return "", true, false
}

// ZoneMap serves the cluster topology to OpZoneMap requests.
func (n *Node) ZoneMap() *wire.ZoneMapResp {
	if zm := n.zm.Load(); zm != nil {
		return zm.Wire()
	}
	return &wire.ZoneMapResp{}
}

// Handoff is the receiver side of a batch of object transfers.  Runs on a
// session goroutine with the commit lock held (shared), like any other
// mutation.  Objects apply in order; the first failure aborts the rest
// (the sender keeps the whole batch in doubt and retries, and the fences
// acknowledge the objects that did apply as duplicates).
func (n *Node) Handoff(req *wire.HandoffReq, prov *most.Prov) (*wire.HandoffResp, error) {
	resp := &wire.HandoffResp{Accepted: make([]bool, 0, len(req.Objects))}
	for i := range req.Objects {
		var p *most.Prov
		if prov != nil {
			p = &most.Prov{Client: prov.Client, Req: prov.Req, Op: prov.Op + i}
		}
		accepted, err := n.accept(&req.Objects[i], p)
		if err != nil {
			return nil, err
		}
		resp.Accepted = append(resp.Accepted, accepted)
	}
	resp.Now = n.srv.DB().Now()
	return resp, nil
}

// accept applies one transferred object, fenced by its version; false
// acknowledges a duplicate without re-applying.
func (n *Node) accept(req *wire.HandoffObject, prov *most.Prov) (bool, error) {
	n.mu.Lock()
	fence := n.fences[req.ID]
	if req.Version <= fence {
		if _, held := n.srv.DB().Get(most.ObjectID(req.ID)); held {
			// A retransmit of a transfer this node already accepted: the
			// local copy derives from that very transfer (or a newer one),
			// so acknowledging lets the sender release safely.  Possession
			// is the load-bearing condition — without it this node cannot
			// vouch that the lineage survives the sender's delete.
			n.mu.Unlock()
			n.handoffDups.Add(1)
			return false, nil
		}
		// Stale version, but nothing here to vouch with: the sender's copy
		// is the only live one (a recovered sender restarts its fence at
		// one), so accept the transfer rather than strand the object.  The
		// fence keeps its high-water mark.
	}
	if req.Version > fence {
		n.fences[req.ID] = req.Version
	}
	// Freeze for the duration of the apply: mutating requests hold the
	// commit lock shared, so an update for this object can race the
	// transfer — between tombstone removal and the insert committing the
	// object would otherwise be routable nowhere, and the router would see
	// the database's non-retryable unknown-object error instead of the
	// retryable mid-handoff refusal.  If the object is already frozen (an
	// in-doubt outbound transfer parked here), that freeze stays owned by
	// the retry loop.
	selfFrozen := !n.frozen[req.ID]
	if selfFrozen {
		n.frozen[req.ID] = true
	}
	n.mu.Unlock()
	defer func() {
		if selfFrozen {
			n.mu.Lock()
			delete(n.frozen, req.ID)
			n.mu.Unlock()
		}
	}()

	o, err := most.DecodeObject(n.srv.DB(), req.Object)
	if err != nil {
		n.mu.Lock()
		if req.Version > fence && n.fences[req.ID] == req.Version {
			n.fences[req.ID] = fence
		}
		n.mu.Unlock()
		return false, fmt.Errorf("cluster: handoff decode %s: %w", req.ID, err)
	}
	// Replace any local copy.  The pre-delete carries no provenance on
	// purpose: if the node crashes between delete and insert, recovery
	// finds no stamp for this object, the sender's retry re-executes it
	// (rolling forward past the batch's earlier, stamped objects), and the
	// (now absent) object inserts cleanly.  Only the insert is stamped, so
	// a crash after it rolls the retry forward without re-applying.
	if _, ok := n.srv.DB().Get(o.ID()); ok {
		if err := n.srv.DB().Delete(o.ID()); err != nil {
			return false, fmt.Errorf("cluster: handoff replace %s: %w", req.ID, err)
		}
	}
	if err := n.srv.DB().InsertProv(o, prov); err != nil {
		return false, fmt.Errorf("cluster: handoff insert %s: %w", req.ID, err)
	}
	// Only now that the insert is committed does the departure record go:
	// dropping it earlier would leave a window with neither possession nor
	// a forwarding address (and a decode error above would have destroyed
	// it for nothing).  A stale tombstone is harmless in the meantime —
	// possession wins in RouteOp.
	n.mu.Lock()
	delete(n.tomb, req.ID)
	n.mu.Unlock()
	n.handoffsIn.Add(1)
	return true, nil
}

// AfterCommit scans for zone exits once a mutating request has committed
// and released the commit lock.  touched lists the batch's object IDs;
// nil means a rebalance barrier — scan the whole shard.  Handoffs run to
// completion (or give up for this round) before returning, so when a
// quiesced cluster answers a query no transfer is still in flight.
func (n *Node) AfterCommit(touched []string) {
	zm := n.zm.Load()
	if zm == nil {
		return
	}
	now := n.srv.DB().Now()
	type mover struct {
		o    *most.Object
		dest string
	}
	var movers []mover
	consider := func(o *most.Object) {
		if zm.IsReplicated(o.Class().Name()) {
			return
		}
		p, err := o.PositionAt(now)
		if err != nil {
			return
		}
		if dest := zm.OwnerAt(p); dest != "" && dest != n.name {
			movers = append(movers, mover{o, dest})
		}
	}
	if touched == nil {
		for _, o := range n.srv.DB().Objects("") {
			consider(o)
		}
	} else {
		for _, id := range touched {
			if o, ok := n.srv.DB().Get(most.ObjectID(id)); ok {
				consider(o)
			}
		}
	}
	// Movers bound for one receiver travel together: one HANDOFF per
	// destination is one round trip and one commit on each side, however
	// many objects cross a seam at once.  Destinations are independent,
	// so their batches fly concurrently.
	byDest := map[string][]*most.Object{}
	for _, m := range movers {
		byDest[m.dest] = append(byDest[m.dest], m.o)
	}
	var wg sync.WaitGroup
	for dest, objs := range byDest {
		dest, objs := dest, objs
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.handoff(objs, dest)
		}()
	}
	wg.Wait()
}

// maxHandoffBatch caps the objects in one HANDOFF, keeping a frame from a
// mass exodus (a whole shard re-homed) well inside the peer frame bound.
const maxHandoffBatch = 256

// handoff transfers objects to dest: freeze, send fenced, delete on
// acknowledgement.  A transport failure leaves the batch's objects frozen
// and parked as in-doubt transfers — the receiver may have applied them,
// so no write may land here until the retry loop gets an answer.
func (n *Node) handoff(objs []*most.Object, dest string) {
	xs := make([]pendXfer, 0, len(objs))
	for _, o := range objs {
		id := string(o.ID())
		n.mu.Lock()
		if n.frozen[id] {
			n.mu.Unlock()
			continue
		}
		n.frozen[id] = true
		ver := n.fences[id] + 1
		n.mu.Unlock()

		xs = append(xs, pendXfer{id: id, ver: ver, doc: most.EncodeObject(o), dest: dest})
	}
	for len(xs) > 0 {
		batch := xs[:min(len(xs), maxHandoffBatch)]
		xs = xs[len(batch):]
		if n.send(batch, dest) != nil {
			n.mu.Lock()
			for _, x := range batch {
				n.pend[x.id] = x
			}
			n.mu.Unlock()
		}
	}
}

// send pushes one batch of fenced transfers to dest and, on the
// acknowledgement — accepted or duplicate, either way the receiver vouches
// for each object's lineage — releases the local copies.  The deletes
// hold the commit lock shared, so a checkpoint never splits them from the
// WAL records around them.  A non-nil return means the receiver never
// answered; the caller keeps the batch in doubt.
func (n *Node) send(xs []pendXfer, dest string) error {
	cl, err := n.peerClient(dest)
	if err != nil {
		return err
	}
	req := &wire.HandoffReq{From: n.name, Objects: make([]wire.HandoffObject, len(xs))}
	for i, x := range xs {
		req.Objects[i] = wire.HandoffObject{ID: x.id, Version: x.ver, Object: x.doc}
	}
	resp, err := cl.Handoff(req)
	if err != nil {
		return err
	}
	if len(resp.Accepted) != len(xs) {
		return fmt.Errorf("cluster: handoff to %s acknowledged %d of %d objects", dest, len(resp.Accepted), len(xs))
	}
	n.srv.WithCommitLock(func() {
		for _, x := range xs {
			n.srv.DB().Delete(most.ObjectID(x.id))
			n.mu.Lock()
			n.tomb[x.id] = dest
			if x.ver > n.fences[x.id] {
				n.fences[x.id] = x.ver
			}
			delete(n.frozen, x.id)
			delete(n.pend, x.id)
			n.mu.Unlock()
		}
	})
	for _, ok := range resp.Accepted {
		if ok {
			n.handoffsOut.Add(1)
		} else {
			n.bounces.Add(1)
		}
	}
	return nil
}

// Pending returns the number of in-doubt transfers parked on the node.
func (n *Node) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pend)
}

// Quarantine freezes every out-of-zone partitioned object a recovered
// node still holds and parks each as an in-doubt transfer to its zone
// owner.  A crash wipes the fences and the pending set, so a recovered
// node cannot know which of those objects were mid-handoff when it died
// — the receiver may hold an acknowledged copy already.  Freezing them
// until the owner answers restores the no-lost-writes guarantee: no
// update can land on a copy that a duplicate acknowledgement would then
// release.  Returns the number of objects quarantined.
func (n *Node) Quarantine() (int, error) {
	zm := n.zm.Load()
	if zm == nil {
		return 0, errors.New("cluster: quarantine before zone map installed")
	}
	db := n.srv.DB()
	now := db.Now()
	count := 0
	for _, o := range db.Objects("") {
		if zm.IsReplicated(o.Class().Name()) {
			continue
		}
		p, err := o.PositionAt(now)
		if err != nil {
			continue
		}
		dest := zm.OwnerAt(p)
		if dest == "" || dest == n.name {
			continue
		}
		id := string(o.ID())
		n.mu.Lock()
		if !n.frozen[id] {
			n.frozen[id] = true
			n.pend[id] = pendXfer{id: id, ver: n.fences[id] + 1, doc: most.EncodeObject(o), dest: dest}
			count++
		}
		n.mu.Unlock()
	}
	return count, nil
}

// peerClient returns (dialing on first use) the reliable client for a
// peer node.  Peer sessions authenticate as peers (HelloReq.Peer) so the
// server raises their frame bound, and carry a per-boot client identity
// so request IDs never collide with a previous incarnation's receipts.
func (n *Node) peerClient(addr string) (*client.Client, error) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if cl, ok := n.peers[addr]; ok {
		return cl, nil
	}
	// The retry budget is deliberately modest: a transfer that cannot
	// reach its receiver (partition, crash) is not worth stalling the
	// commit path for — the object stays frozen here, parked as an
	// in-doubt transfer that retryLoop re-offers every 150 ms.
	opts := []client.Option{
		client.WithClientID("peer:" + n.name + ":" + n.nonce),
		client.WithPeer(),
		client.WithRetries(25),
		client.WithTimeout(10 * time.Second),
		client.WithBackoff(2*time.Millisecond, 100*time.Millisecond),
	}
	if n.dial != nil {
		opts = append(opts, client.WithDialer(n.dial))
	}
	cl, err := client.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	n.peers[addr] = cl
	return cl, nil
}

// closePeers stops the in-doubt retry loop and tears down the node's
// peer connections (cluster shutdown).
func (n *Node) closePeers() {
	n.retryOnce.Do(func() { close(n.retryStop) })
	n.retryWG.Wait()
	n.pmu.Lock()
	defer n.pmu.Unlock()
	for addr, cl := range n.peers {
		cl.Close()
		delete(n.peers, addr)
	}
}
