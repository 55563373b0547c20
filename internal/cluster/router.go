package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// Router is the client-side face of a cluster: it holds one connection
// per node, routes update batches to the owning node, scatters queries to
// every node and merges the per-zone answers, and keeps continuous
// queries registered everywhere so a merged subscription follows objects
// across zone crossings.
//
// Routing state is a cache, not a source of truth.  The owner map is
// seeded from each node's object listing and corrected by the nodes
// themselves, by one rule: send each group to its cached owner; on a
// wrong_zone refusal follow its Addr (the one node owning the whole
// group), or regroup by its per-op Redirects, every hop and regroup
// spending one shared budget (maxHops).  Nodes never execute each
// other's ops, so a success comes from the node that applied the group,
// and learn records that node as the owner.
type Router struct {
	zm    *ZoneMap
	order []string // node addresses, zone-map order
	dial  func(addr string) (net.Conn, error)
	nonce string

	mu      sync.Mutex
	clients map[string]*client.Client // by node address
	owner   map[string]string         // object id -> node address (cache)
	repl    map[string]bool           // object id -> replicated class member

	sends, hops, regroups, heals, loops atomic.Uint64
}

// RouterStats counts the routing rule's steps since the Router was built.
type RouterStats struct {
	Sends    uint64 `json:"sends"`    // routed group sends (replicated broadcasts excluded)
	Hops     uint64 `json:"hops"`     // wrong_zone refusals followed to the Addr they named
	Regroups uint64 `json:"regroups"` // wrong_zone refusals split along their Redirects
	Heals    uint64 `json:"heals"`    // owner caches re-seeded after a single op was refused
	Loops    uint64 `json:"loops"`    // groups given up after maxHops sends (redirect loop)
}

// Stats returns the routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Sends: r.sends.Load(), Hops: r.hops.Load(), Regroups: r.regroups.Load(),
		Heals: r.heals.Load(), Loops: r.loops.Load(),
	}
}

// maxHops bounds the redirects, regroups and heals one op may ride before
// the router gives up: redirects are hints a concurrent handoff can
// stale, and two mutually stale nodes must not bounce a batch forever.
const maxHops = 4

// NewRouter bootstraps a router from any live node: it fetches the zone
// map, connects to every node in it, and seeds the ownership cache from
// the nodes' object listings.  nonce makes the router's per-node client
// identities unique per process, dial (nil = TCP) injects the transport.
func NewRouter(addr, nonce string, dial func(addr string) (net.Conn, error)) (*Router, error) {
	r := &Router{
		dial:    dial,
		clients: map[string]*client.Client{},
		owner:   map[string]string{},
		repl:    map[string]bool{},
		nonce:   nonce,
	}
	boot, err := r.connect(addr)
	if err != nil {
		return nil, err
	}
	zmw, err := boot.ZoneMap()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("cluster: fetch zone map: %w", err)
	}
	r.zm = FromWire(&zmw)
	seen := map[string]bool{}
	for _, z := range r.zm.Zones {
		if seen[z.Addr] {
			continue
		}
		seen[z.Addr] = true
		r.order = append(r.order, z.Addr)
		if _, err := r.connect(z.Addr); err != nil {
			r.Close()
			return nil, err
		}
	}
	if len(r.order) == 0 {
		r.Close()
		return nil, fmt.Errorf("cluster: zone map from %s names no nodes", addr)
	}
	if err := r.seedOwners(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// connect returns (dialing on first use) the client for one node.  Each
// per-node client carries a distinct identity, so a node's idempotence
// cache and epoch fence never see two of the router's independent
// request-id counters under one name.
func (r *Router) connect(addr string) (*client.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cl, ok := r.clients[addr]; ok {
		return cl, nil
	}
	opts := []client.Option{
		client.WithClientID("router:" + r.nonce + ":" + addr),
		client.WithRetries(400),
		client.WithTimeout(10 * time.Second),
		client.WithBackoff(2*time.Millisecond, 250*time.Millisecond),
	}
	if r.dial != nil {
		opts = append(opts, client.WithDialer(r.dial))
	}
	cl, err := client.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	r.clients[addr] = cl
	return cl, nil
}

// seedOwners fills the ownership cache from every node's object listing
// and records which objects belong to replicated classes.
func (r *Router) seedOwners() error {
	for _, addr := range r.order {
		cl, err := r.connect(addr)
		if err != nil {
			return err
		}
		resp, err := cl.Objects("")
		if err != nil {
			return fmt.Errorf("cluster: seed owners from %s: %w", addr, err)
		}
		r.mu.Lock()
		for _, o := range resp.Objects {
			if r.zm.IsReplicated(o.Class) {
				r.repl[o.ID] = true
				continue
			}
			r.owner[o.ID] = addr
		}
		r.mu.Unlock()
	}
	return nil
}

// NodeClient returns the router's connection to one node, for callers
// that need per-node inspection (tests, benchmarks).
func (r *Router) NodeClient(addr string) (*client.Client, error) { return r.connect(addr) }

// Close tears down every node connection.
func (r *Router) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for addr, cl := range r.clients {
		cl.Close()
		delete(r.clients, addr)
	}
}

// fanOut runs fn once per node address, all concurrently, and returns the
// first error in addrs order.  Requests to different nodes ride
// independent connections, so a round over N nodes costs one round trip,
// not N.
func fanOut(addrs []string, fn func(i int, addr string) error) error {
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, addr)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- updates ----

// UpdateBatch routes ops to their owning nodes and applies them.  Ops on
// replicated-class objects, fresh inserts included, broadcast to every
// node (each maintains its own full copy); the rest group by cached
// owner, an unknown one meaning the first node, whose gate names the
// owner (a fresh insert's by its encoded position).  Applied counts each
// original op once, however many replicas applied it; Now and Version
// are taken from the last response and are only meaningful to callers
// quiescing at barriers.
func (r *Router) UpdateBatch(ops []wire.UpdateOp) (wire.UpdateBatchResp, error) {
	groups := map[string][]wire.UpdateOp{}
	var bcast []wire.UpdateOp
	r.mu.Lock()
	for _, op := range ops {
		if op.Op == wire.OpInsert {
			if class, err := most.ObjectClass(op.Object); err == nil && r.zm.IsReplicated(class) {
				r.repl[op.ID] = true
			}
		}
		if r.repl[op.ID] {
			bcast = append(bcast, op)
			continue
		}
		addr := r.owner[op.ID]
		if addr == "" {
			addr = r.order[0]
		}
		groups[addr] = append(groups[addr], op)
	}
	r.mu.Unlock()

	out, err := r.sendGroups(groups, maxHops)
	if err != nil || len(bcast) == 0 {
		return out, err
	}
	resps := make([]wire.UpdateBatchResp, len(r.order))
	err = fanOut(r.order, func(i int, addr string) error {
		cl, err := r.connect(addr)
		if err != nil {
			return err
		}
		if resps[i], err = cl.UpdateBatch(bcast); err != nil {
			return fmt.Errorf("cluster: replicated batch on %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	last := resps[len(resps)-1]
	out.Applied += len(bcast)
	out.Now, out.Version = last.Now, last.Version
	return out, nil
}

// sendGroups delivers each destination's group concurrently, each with
// budget hops left, and sums the responses.
func (r *Router) sendGroups(groups map[string][]wire.UpdateOp, budget int) (wire.UpdateBatchResp, error) {
	addrs := sortedKeys(groups)
	resps := make([]wire.UpdateBatchResp, len(addrs))
	err := fanOut(addrs, func(i int, addr string) (err error) {
		resps[i], err = r.sendGroup(addr, groups[addr], budget)
		return err
	})
	var out wire.UpdateBatchResp
	if err != nil {
		return out, err
	}
	for _, resp := range resps {
		out.Applied += resp.Applied
		out.Now, out.Version = resp.Now, resp.Version
	}
	return out, nil
}

// sendGroup delivers one group believed to belong to addr.  A wrong_zone
// refusal naming one owner is a hop there; one naming each op's owner
// regroups the batch along those Redirects, ops the refusing node owns
// going straight back to it.  Either spends one hop of the budget, which
// the regrouped subgroups share; any other refusal goes to healGroup,
// whose retry spends one too.
func (r *Router) sendGroup(addr string, ops []wire.UpdateOp, budget int) (wire.UpdateBatchResp, error) {
	for ; budget > 0; budget-- {
		cl, err := r.connect(addr)
		if err != nil {
			return wire.UpdateBatchResp{}, err
		}
		r.sends.Add(1)
		resp, err := cl.UpdateBatch(ops)
		if err == nil {
			r.learn(ops, addr)
			return resp, nil
		}
		var se *client.ServerError
		if !errors.As(err, &se) {
			return resp, err
		}
		switch {
		case se.Code == wire.CodeWrongZone && se.Addr != "":
			r.hops.Add(1)
			addr = se.Addr
		case se.Code == wire.CodeWrongZone && len(se.Redirects) == len(ops):
			r.regroups.Add(1)
			groups := map[string][]wire.UpdateOp{}
			for i, op := range ops {
				a := se.Redirects[i]
				if a == "" {
					a = addr
				}
				groups[a] = append(groups[a], op)
			}
			return r.sendGroups(groups, budget-1)
		default:
			return r.healGroup(addr, ops, err, budget-1)
		}
	}
	r.loops.Add(1)
	return wire.UpdateBatchResp{}, fmt.Errorf("cluster: redirect loop routing %d ops", len(ops))
}

// healGroup recovers a single op its node refused outright.  Redirects
// normally correct the cache, but a restarted node loses its tombstones
// — it can no longer point at where a departed object went, so it
// answers with the database's own unknown-object error even though the
// object lives elsewhere.  Re-seed the possession map from the nodes and
// retry wherever the object actually is; if no other node holds it, the
// original error stands (the object really is unknown).
func (r *Router) healGroup(addr string, ops []wire.UpdateOp, orig error, budget int) (wire.UpdateBatchResp, error) {
	if len(ops) != 1 {
		return wire.UpdateBatchResp{}, orig
	}
	r.heals.Add(1)
	r.mu.Lock()
	delete(r.owner, ops[0].ID)
	r.mu.Unlock()
	if err := r.seedOwners(); err != nil {
		return wire.UpdateBatchResp{}, orig
	}
	r.mu.Lock()
	next := r.owner[ops[0].ID]
	r.mu.Unlock()
	if next == "" || next == addr {
		return wire.UpdateBatchResp{}, orig
	}
	return r.sendGroup(next, ops, budget)
}

// learn records a confirmed owner for every op in a delivered group.
func (r *Router) learn(ops []wire.UpdateOp, addr string) {
	r.mu.Lock()
	for _, op := range ops {
		if !r.repl[op.ID] {
			r.owner[op.ID] = addr
		}
	}
	r.mu.Unlock()
}

// SetMotion routes a single motion update.
func (r *Router) SetMotion(id string, vx, vy float64) error {
	_, err := r.UpdateBatch([]wire.UpdateOp{{Op: wire.OpSetMotion, ID: id, VX: vx, VY: vy}})
	return err
}

// ---- clock ----

// Advance moves every node's clock by d in lockstep, then runs the
// rebalance barrier: one zero-tick advance per node, which triggers the
// full handoff scan now that every clock agrees.  Handoffs triggered by
// the barrier complete before the barrier's response (the server runs the
// scan before acknowledging), so when Advance returns the cluster is
// quiesced: every object sits on its owner, no transfer in flight.
func (r *Router) Advance(d temporal.Tick) (temporal.Tick, error) {
	// Each round (the clock move, then the barrier) hits every node
	// concurrently; the rounds themselves stay sequential so the barrier
	// scan always runs on agreeing clocks.
	ticks := make([]temporal.Tick, len(r.order))
	err := fanOut(r.order, func(i int, addr string) error {
		cl, err := r.connect(addr)
		if err != nil {
			return err
		}
		if ticks[i], err = cl.Advance(d); err != nil {
			return fmt.Errorf("cluster: advance on %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i, tk := range ticks {
		if tk != ticks[0] {
			return 0, fmt.Errorf("cluster: clocks diverged: %s at %d, want %d", r.order[i], tk, ticks[0])
		}
	}
	if d != 0 {
		if _, err := r.Advance(0); err != nil {
			return 0, err
		}
	}
	return ticks[0], nil
}

// ---- queries ----

// Query scatters src to every node and merges the per-zone answers by
// canonical-row union.  Partitioned-class rows come from exactly one node
// (each object has one owner at a quiesced barrier) and replicated-class
// rows identically from all, so deduplicating by canonical row key
// reconstructs precisely the single-database answer.  Rows come back
// sorted by that key, making the merge deterministic.
func (r *Router) Query(src string, horizon temporal.Tick) (temporal.Tick, [][]wire.Value, error) {
	ticks := make([]temporal.Tick, len(r.order))
	rowsPer := make([][][]wire.Value, len(r.order))
	err := fanOut(r.order, func(i int, addr string) error {
		cl, err := r.connect(addr)
		if err != nil {
			return err
		}
		if ticks[i], rowsPer[i], err = cl.Query(src, horizon); err != nil {
			return fmt.Errorf("cluster: query on %s: %w", addr, err)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	merged := map[string][]wire.Value{}
	for i, rows := range rowsPer {
		if ticks[i] != ticks[0] {
			return 0, nil, fmt.Errorf("cluster: query clocks diverged: %s at %d, want %d", r.order[i], ticks[i], ticks[0])
		}
		for _, row := range rows {
			merged[rowKey(row)] = row
		}
	}
	keys := sortedKeys(merged)
	out := make([][]wire.Value, len(keys))
	for i, k := range keys {
		out[i] = merged[k]
	}
	return ticks[0], out, nil
}

// rowKey is the canonical form of one presented row.
func rowKey(row []wire.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.String())
		b.WriteByte(0)
	}
	return b.String()
}

// ---- subscriptions ----

// MergedSub is a continuous query followed across the whole cluster: the
// same template registered on every node, presented as one stream whose
// answer is the canonical union of the per-node answers.  When an object
// hands off mid-subscription, its rows leave one node's answer and enter
// another's; the union is briefly recomputed and the merged stream
// converges to exactly the single-database answer — the subscription
// follows the object.
//
// The union is rebuilt when it is read, not on every node notification:
// a node NOTIFY only marks the merged answer stale and signals Updates,
// so following a query across the cluster costs nothing per update
// beyond the per-node subscriptions' own delta application.
type MergedSub struct {
	subs  []*client.Subscription
	addrs []string

	rmu     sync.Mutex // serializes rebuilding the union in Answer
	mu      sync.Mutex
	answer  []wire.AnswerRow
	canon   string
	stale   bool // a node answer changed since the union was built
	seq     uint64
	err     error
	updates chan struct{}
	done    chan struct{}
	once    sync.Once
}

// Subscribe registers src on every node and returns the merged stream.
func (r *Router) Subscribe(src string, horizon temporal.Tick) (*MergedSub, error) {
	m := &MergedSub{
		updates: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for _, addr := range r.order {
		cl, err := r.connect(addr)
		if err != nil {
			m.Close()
			return nil, err
		}
		sub, err := cl.Subscribe(src, horizon)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cluster: subscribe on %s: %w", addr, err)
		}
		m.subs = append(m.subs, sub)
		m.addrs = append(m.addrs, addr)
	}
	m.recompute()
	for i := range m.subs {
		go m.watch(i)
	}
	return m, nil
}

// watch marks the merged answer stale on each of one node's
// notifications and signals Updates.
func (m *MergedSub) watch(i int) {
	sub := m.subs[i]
	for {
		select {
		case <-m.done:
			return
		case <-sub.Done():
			m.fail(fmt.Errorf("cluster: subscription on %s failed: %w", m.addrs[i], sub.Err()))
			return
		case <-sub.Updates():
			m.mu.Lock()
			m.stale = true
			m.mu.Unlock()
			select {
			case m.updates <- struct{}{}:
			default:
			}
		}
	}
}

// recompute rebuilds the union of the per-node answers; a change bumps
// the merged sequence number.
func (m *MergedSub) recompute() {
	merged := map[string]wire.AnswerRow{}
	for _, sub := range m.subs {
		ans, _, err := sub.Answer()
		if err != nil {
			continue // the watcher surfaces the failure
		}
		for _, row := range ans {
			merged[wire.CanonicalAnswers([]wire.AnswerRow{row})] = row
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]wire.AnswerRow, len(keys))
	for i, k := range keys {
		rows[i] = merged[k]
	}
	canon := wire.CanonicalAnswers(rows)
	m.mu.Lock()
	if canon != m.canon {
		m.canon = canon
		m.answer = rows
		m.seq++
	}
	m.mu.Unlock()
}

func (m *MergedSub) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.once.Do(func() { close(m.done) })
}

// Answer returns the current merged answer and its sequence number,
// which increases whenever the union differs from the one last read.
//
// Readers rebuild one at a time: stale is cleared before the node answers
// are read, so a node change landing mid-rebuild marks the union stale
// again for the next reader, and a concurrent reader waits for the
// rebuild instead of returning the union it replaces.
func (m *MergedSub) Answer() ([]wire.AnswerRow, uint64, error) {
	m.rmu.Lock()
	defer m.rmu.Unlock()
	m.mu.Lock()
	stale := m.stale
	m.stale = false
	m.mu.Unlock()
	if stale {
		m.recompute()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]wire.AnswerRow(nil), m.answer...), m.seq, m.err
}

// Updates signals (coalesced) that a node's answer changed, so the merged
// answer may have: read it with Answer.
func (m *MergedSub) Updates() <-chan struct{} { return m.updates }

// Done closes when the merged stream fails.
func (m *MergedSub) Done() <-chan struct{} { return m.done }

// Err returns the failure that closed the stream, if any.
func (m *MergedSub) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close cancels every per-node subscription.
func (m *MergedSub) Close() {
	m.once.Do(func() { close(m.done) })
	for _, sub := range m.subs {
		sub.Close()
	}
}

// ---- small helpers ----

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
