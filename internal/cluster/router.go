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
// themselves: a batch that lands wholesale on a wrong node is relayed
// server-side (OpForward), and a mixed or unknown batch comes back as a
// wrong_zone redirect carrying the owner's address.  Either way the
// router learns and the next batch flies direct.
type Router struct {
	zm   atomic.Pointer[ZoneMap]
	dial func(addr string) (net.Conn, error)

	mu       sync.Mutex
	clients  map[string]*client.Client // by node address
	order    []string                  // node addresses, zone-map order
	owner    map[string]string         // object id -> node address (cache)
	repl     map[string]bool           // object id -> replicated class member
	ownerGen uint64                    // bumped by each completed refreshOwners
	nonce    string

	refreshMu sync.Mutex // single-flights refreshOwners
}

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
	zm := FromWire(&zmw)
	r.zm.Store(zm)
	seen := map[string]bool{}
	for _, z := range zm.Zones {
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
	if err := r.seedOwners(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// connect returns (dialing on first use) the client for one node.  Each
// per-node client carries a distinct identity: a forwarded request is
// deduplicated on the destination under (origin identity, request id),
// and two clients with one identity but independent id counters could
// collide there.
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
		// If the cluster is ever re-homed, a healing subscription re-asks
		// the zone map for the address now serving this node's zones
		// instead of redialing a dead one forever.
		client.WithResolver(func(prev string) (string, error) { return r.resolveNode(prev) }),
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

// resolveNode maps a (possibly dead) node address to the address serving
// its zones in the current map — the heal-loop's zone-map indirection.
func (r *Router) resolveNode(prev string) (string, error) {
	zm := r.zm.Load()
	if zm == nil {
		return prev, nil
	}
	for _, z := range zm.Zones {
		if z.Addr == prev {
			return z.Addr, nil
		}
	}
	// The address vanished from the map entirely: its zones were re-homed;
	// any surviving node can say where.  With a static map this is
	// unreachable, but the contract keeps the heal loop zone-map-driven.
	if len(zm.Zones) > 0 {
		return zm.Zones[0].Addr, nil
	}
	return prev, nil
}

// seedOwners fills the ownership cache from every node's object listing
// and records which objects belong to replicated classes.
func (r *Router) seedOwners() error {
	zm := r.zm.Load()
	for _, addr := range r.nodes() {
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
			if zm != nil && zm.IsReplicated(o.Class) {
				r.repl[o.ID] = true
				continue
			}
			r.owner[o.ID] = addr
		}
		r.mu.Unlock()
	}
	return nil
}

// nodes returns the node addresses in zone-map order.
func (r *Router) nodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// ZoneMap returns the topology the router currently routes by.
func (r *Router) ZoneMap() *ZoneMap { return r.zm.Load() }

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

// ---- updates ----

// UpdateBatch routes ops to their owning nodes and applies them.  Ops on
// replicated-class objects broadcast to every node (each maintains its
// own full copy); the rest group by cached owner and fly direct, with
// server-side relaying and wrong_zone redirects correcting stale cache
// entries.  Applied counts each original op once, however many replicas
// applied it; Now and Version are taken from the last response and are
// only meaningful to callers quiescing at barriers.
func (r *Router) UpdateBatch(ops []wire.UpdateOp) (wire.UpdateBatchResp, error) {
	groups := map[string][]wire.UpdateOp{}
	var bcast []wire.UpdateOp
	r.mu.Lock()
	fallback := ""
	if len(r.order) > 0 {
		fallback = r.order[0]
	}
	for _, op := range ops {
		if r.repl[op.ID] {
			bcast = append(bcast, op)
			continue
		}
		addr, ok := r.owner[op.ID]
		if !ok || addr == "" {
			addr = r.routeColdLocked(&op, fallback)
		}
		groups[addr] = append(groups[addr], op)
	}
	r.mu.Unlock()

	var out wire.UpdateBatchResp
	addrs := sortedKeys(groups)
	resps := make([]wire.UpdateBatchResp, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		// Per-node groups are independent requests on independent
		// connections: scatter them concurrently so a batch spanning N
		// zones costs one round trip, not N.
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := r.sendGroup(addr, groups[addr])
			if err != nil {
				resp, err = r.healGroup(addr, groups[addr], err)
			}
			resps[i], errs[i] = resp, err
		}()
	}
	wg.Wait()
	for i := range addrs {
		if errs[i] != nil {
			return out, errs[i]
		}
		out.Applied += resps[i].Applied
		out.Now, out.Version = resps[i].Now, resps[i].Version
	}
	if len(bcast) > 0 {
		for _, addr := range r.nodes() {
			cl, err := r.connect(addr)
			if err != nil {
				return out, err
			}
			resp, err := cl.UpdateBatch(bcast)
			if err != nil {
				return out, fmt.Errorf("cluster: replicated batch on %s: %w", addr, err)
			}
			out.Now, out.Version = resp.Now, resp.Version
		}
		out.Applied += len(bcast)
	}
	return out, nil
}

// routeColdLocked picks a destination for an op whose owner is unknown:
// inserts route by the encoded object's start position, everything else
// goes to the fallback node, whose gate will redirect or relay.
func (r *Router) routeColdLocked(op *wire.UpdateOp, fallback string) string {
	if op.Op == wire.OpInsert && len(op.Object) > 0 {
		if zm := r.zm.Load(); zm != nil {
			if class, err := most.ObjectClass(op.Object); err == nil && zm.IsReplicated(class) {
				// Newly inserted replicated objects are rare enough to
				// learn lazily: send to fallback, remember the class.
				r.repl[op.ID] = true
			}
		}
	}
	return fallback
}

// sendGroup delivers one single-owner group, following wrong_zone
// redirects (bounded) and splitting when a group turns out to be mixed.
func (r *Router) sendGroup(addr string, ops []wire.UpdateOp) (wire.UpdateBatchResp, error) {
	return r.sendGroupOpts(addr, ops, true)
}

// sendGroupOpts is sendGroup with the mixed-batch resplit budget made
// explicit: a regrouped subgroup must not trigger another cache refresh,
// or two stale routers could ping-pong indefinitely.
func (r *Router) sendGroupOpts(addr string, ops []wire.UpdateOp, canResplit bool) (wire.UpdateBatchResp, error) {
	var resp wire.UpdateBatchResp
	for hop := 0; hop < 4; hop++ {
		cl, err := r.connect(addr)
		if err != nil {
			return resp, err
		}
		resp, err = cl.UpdateBatch(ops)
		if err == nil {
			r.learn(ops, addr)
			return resp, nil
		}
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeWrongZone {
			return resp, err
		}
		if se.Addr == "" {
			// Mixed batch: no single owner to redirect to.
			if len(ops) == 1 {
				return resp, err
			}
			if len(se.Redirects) == len(ops) && canResplit {
				return r.regroupByRedirects(addr, ops, se.Redirects)
			}
			return r.splitGroup(addr, ops, canResplit)
		}
		addr = se.Addr
	}
	return resp, fmt.Errorf("cluster: redirect loop routing %d ops", len(ops))
}

// regroupByRedirects resends a refused batch along the per-op owners the
// gate answered with: ops the refusing node owns go straight back to it,
// the rest to the named owners.  One failed round trip buys an exact
// regrouping — no ownership sweep, no per-op probing.  Subgroups run with
// the resplit budget spent, so two mutually-stale nodes cannot ping-pong
// a batch between them forever.
func (r *Router) regroupByRedirects(addr string, ops []wire.UpdateOp, redirects []string) (wire.UpdateBatchResp, error) {
	groups := map[string][]wire.UpdateOp{}
	for i, op := range ops {
		a := redirects[i]
		if a == "" {
			a = addr
		}
		groups[a] = append(groups[a], op)
	}
	var out wire.UpdateBatchResp
	for _, a := range sortedKeys(groups) {
		one, err := r.sendGroupOpts(a, groups[a], false)
		if err != nil {
			one, err = r.healGroup(a, groups[a], err)
		}
		if err != nil {
			return out, err
		}
		out.Applied += one.Applied
		out.Now, out.Version = one.Now, one.Version
	}
	return out, nil
}

// splitGroup recovers a group the gate refused as mixed.  The cheap path
// refreshes the ownership cache (one coalesced listing sweep covers a
// whole barrier's worth of moved objects) and resends the regrouped
// subgroups; only if the refresh changes nothing does it fall back to
// routing each op on its own — singles always carry a redirect address
// or get relayed server-side.
func (r *Router) splitGroup(addr string, ops []wire.UpdateOp, canResplit bool) (wire.UpdateBatchResp, error) {
	if canResplit && r.refreshOwners() == nil {
		groups := map[string][]wire.UpdateOp{}
		r.mu.Lock()
		for _, op := range ops {
			a, ok := r.owner[op.ID]
			if !ok || a == "" {
				a = r.routeColdLocked(&op, addr)
			}
			groups[a] = append(groups[a], op)
		}
		r.mu.Unlock()
		if len(groups) > 1 || groups[addr] == nil {
			var out wire.UpdateBatchResp
			for _, a := range sortedKeys(groups) {
				one, err := r.sendGroupOpts(a, groups[a], false)
				if err != nil {
					one, err = r.healGroup(a, groups[a], err)
				}
				if err != nil {
					return out, err
				}
				out.Applied += one.Applied
				out.Now, out.Version = one.Now, one.Version
			}
			return out, nil
		}
		// The refresh reproduced the same single group: the cache cannot
		// explain the refusal, so isolate the offender op by op.
	}
	var out wire.UpdateBatchResp
	for _, op := range ops {
		one, err := r.sendGroupOpts(addr, []wire.UpdateOp{op}, false)
		if err != nil {
			// Singles get the same last-line recovery as top-level groups:
			// rebuild the possession map and retry once at the actual holder.
			one, err = r.healGroup(addr, []wire.UpdateOp{op}, err)
		}
		if err != nil {
			return out, err
		}
		out.Applied += one.Applied
		out.Now, out.Version = one.Now, one.Version
	}
	return out, nil
}

// refreshOwners rebuilds the ownership cache from the nodes, coalescing
// concurrent callers on a generation counter: whoever loses the race
// returns once the winner's sweep lands instead of sweeping again.
func (r *Router) refreshOwners() error {
	r.mu.Lock()
	gen := r.ownerGen
	r.mu.Unlock()
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	r.mu.Lock()
	cur := r.ownerGen
	r.mu.Unlock()
	if cur != gen {
		return nil // refreshed while we waited for the lock
	}
	if err := r.seedOwners(); err != nil {
		return err
	}
	r.mu.Lock()
	r.ownerGen++
	r.mu.Unlock()
	return nil
}

// healGroup is the last line of routing recovery: a single op the cached
// owner refused or failed outright.  Redirects normally correct the
// cache, but a restarted node loses its tombstones — it can no longer
// point at where a departed object went, so it answers with the
// database's own unknown-object error even though the object lives
// elsewhere.  Rebuild the possession map from the nodes and retry once
// wherever the object actually is; if no node holds it, the original
// error stands (the object really is unknown).
func (r *Router) healGroup(addr string, ops []wire.UpdateOp, orig error) (wire.UpdateBatchResp, error) {
	var se *client.ServerError
	if len(ops) != 1 || !errors.As(orig, &se) {
		return wire.UpdateBatchResp{}, orig
	}
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
	return r.sendGroup(next, ops)
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
	addrs := r.nodes()
	ticks := make([]temporal.Tick, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := r.connect(addr)
			if err != nil {
				errs[i] = err
				return
			}
			got, err := cl.Advance(d)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: advance on %s: %w", addr, err)
				return
			}
			ticks[i] = got
		}()
	}
	wg.Wait()
	var now temporal.Tick
	for i := range addrs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if i == 0 {
			now = ticks[i]
		} else if ticks[i] != now {
			return 0, fmt.Errorf("cluster: clocks diverged: %s at %d, want %d", addrs[i], ticks[i], now)
		}
	}
	if d != 0 {
		if _, err := r.Advance(0); err != nil {
			return 0, err
		}
	}
	return now, nil
}

// ---- queries ----

// Query scatters src to every node and merges the per-zone answers by
// canonical-row union.  Partitioned-class rows come from exactly one node
// (each object has one owner at a quiesced barrier) and replicated-class
// rows identically from all, so deduplicating by canonical row key
// reconstructs precisely the single-database answer.  Rows come back
// sorted by that key, making the merge deterministic.
func (r *Router) Query(src string, horizon temporal.Tick) (temporal.Tick, [][]wire.Value, error) {
	addrs := r.nodes()
	ticks := make([]temporal.Tick, len(addrs))
	rowsPer := make([][][]wire.Value, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := r.connect(addr)
			if err != nil {
				errs[i] = err
				return
			}
			got, rows, err := cl.Query(src, horizon)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: query on %s: %w", addr, err)
				return
			}
			ticks[i], rowsPer[i] = got, rows
		}()
	}
	wg.Wait()
	var now temporal.Tick
	merged := map[string][]wire.Value{}
	for i := range addrs {
		if errs[i] != nil {
			return 0, nil, errs[i]
		}
		if i == 0 {
			now = ticks[i]
		} else if ticks[i] != now {
			return 0, nil, fmt.Errorf("cluster: query clocks diverged: %s at %d, want %d", addrs[i], ticks[i], now)
		}
		for _, row := range rowsPer[i] {
			merged[rowKey(row)] = row
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]wire.Value, len(keys))
	for i, k := range keys {
		out[i] = merged[k]
	}
	return now, out, nil
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
	for _, addr := range r.nodes() {
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
