package server

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// patchRing is how many recent installs a plan's wire state keeps patches
// for.  A subscription whose client holds an older install than the ring
// reaches is sent a full answer instead of a delta.  A variable so tests
// can force ring overflow.
var patchRing = 64

// planWire is the wire state of one engine plan, shared by every
// subscription on it: the wire form of the patches of its recent installs
// (each converted once, by the first subscription to see it) and the full
// rows of one install, built on demand for initial answers and for
// sessions that receive full NOTIFYs.  A pump composes the patches between
// the install its client holds and the newest one into one delta, so an
// install costs O(changed instantiations) per subscription, not
// O(|Answer(CQ)|).
type planWire struct {
	refs int // guarded by Server.wireMu

	mu   sync.Mutex
	ring []*wirePatch // ring[gen % len(ring)] holds install gen's patch
	last uint64       // newest recorded install

	// full caches the rows of one install; a newer install drops it, so
	// an answer nobody asks for whole is not kept.  fullMu serializes
	// conversions so concurrent pumps convert an install once.
	fullMu sync.Mutex
	full   atomic.Pointer[fullAnswer]
}

type fullAnswer struct {
	gen  uint64
	rows []wire.AnswerRow
}

// wirePatch is one install's patch in wire form.  Its slices are shared
// by every NOTIFY built from it and never modified.
type wirePatch struct {
	gen uint64
	// reset marks an install clients must take whole: it carried no
	// patch, or one touching most of the answer (which would be no
	// smaller on the wire, and is not worth keeping in the ring).
	reset bool
	gone  [][]wire.Value   // departed instantiations, in key order
	rows  []wire.AnswerRow // rows of arrived/changed instantiations, in key then interval order
}

// resetPatch is the patch size (in instantiations) from which an install
// touching more than half of its answer is recorded as a reset.
const resetPatch = 64

// wireKey names a plan across database swaps: plan IDs are per engine.
type wireKey struct {
	eng  *query.Engine
	plan uint64
}

// acquireWire returns the refcounted wire state of a plan.
func (srv *Server) acquireWire(k wireKey) *planWire {
	srv.wireMu.Lock()
	defer srv.wireMu.Unlock()
	pw, ok := srv.wires[k]
	if !ok {
		pw = &planWire{}
		srv.wires[k] = pw
	}
	pw.refs++
	return pw
}

// releaseWire drops one reference; the last release frees the state.
func (srv *Server) releaseWire(k wireKey) {
	srv.wireMu.Lock()
	defer srv.wireMu.Unlock()
	pw, ok := srv.wires[k]
	if !ok {
		return
	}
	pw.refs--
	if pw.refs <= 0 {
		delete(srv.wires, k)
	}
}

// record stores an install's patch in the ring, converting it to wire
// form; installs already recorded (by another subscription on the plan)
// are skipped.  Runs on the commit path, so it is O(|patch|).
func (pw *planWire) record(in query.Install) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if in.Gen <= pw.last {
		return
	}
	pw.last = in.Gen
	wp := &wirePatch{gen: in.Gen}
	d := in.Patch
	switch {
	case d == nil || d.Len() >= resetPatch && d.Len() > in.Rel.Len()/2:
		wp.reset = true
	default:
		wp.gone, wp.rows = wire.FromDelta(*d)
	}
	if pw.ring == nil {
		pw.ring = make([]*wirePatch, patchRing)
	}
	pw.ring[in.Gen%uint64(len(pw.ring))] = wp
	if f := pw.full.Load(); f != nil && f.gen < in.Gen {
		pw.full.CompareAndSwap(f, nil)
	}
}

// since returns the delta taking install held to install gen: the
// departed instantiations and the replacement rows, composed from the
// ring.  ok is false when some install in between has left the ring or
// carried no patch; the caller then sends the full answer.
func (pw *planWire) since(held, gen uint64) (gone [][]wire.Value, rows []wire.AnswerRow, ok bool) {
	if gen <= held {
		return nil, nil, true
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if gen-held > uint64(len(pw.ring)) {
		return nil, nil, false
	}
	patches := make([]*wirePatch, 0, gen-held)
	for g := held + 1; g <= gen; g++ {
		wp := pw.ring[g%uint64(len(pw.ring))]
		if wp == nil || wp.gen != g || wp.reset {
			return nil, nil, false
		}
		patches = append(patches, wp)
	}
	if len(patches) == 1 {
		return patches[0].gone, patches[0].rows, true
	}
	// Compose: the last patch naming an instantiation decides its fate.
	type fate struct {
		key      string
		departed bool
		gone     []wire.Value     // when departed
		rows     []wire.AnswerRow // otherwise its replacement rows
	}
	at := map[string]int{}
	var fates []fate
	set := func(f fate) {
		if i, dup := at[f.key]; dup {
			fates[i] = f
			return
		}
		at[f.key] = len(fates)
		fates = append(fates, f)
	}
	for _, wp := range patches {
		for _, vals := range wp.gone {
			set(fate{key: wire.InstanceKey(vals), departed: true, gone: vals})
		}
		for i := 0; i < len(wp.rows); {
			j := wire.InstanceEnd(wp.rows, i)
			set(fate{key: wire.InstanceKey(wp.rows[i].Vals), rows: wp.rows[i:j]})
			i = j
		}
	}
	sort.Slice(fates, func(i, j int) bool { return fates[i].key < fates[j].key })
	for _, f := range fates {
		if f.departed {
			gone = append(gone, f.gone)
		} else {
			rows = append(rows, f.rows...)
		}
	}
	return gone, rows, true
}

// fullRows returns the full wire rows of install gen (whose relation is
// rel), converting once per install.  The returned slice is shared and
// must be treated as immutable.
func (pw *planWire) fullRows(rel *eval.Relation, gen uint64, m *metrics) []wire.AnswerRow {
	pw.fullMu.Lock()
	defer pw.fullMu.Unlock()
	if f := pw.full.Load(); f != nil && f.gen == gen {
		m.convHits.Inc()
		return f.rows
	}
	rows := wire.FromRelation(rel)
	m.convMisses.Inc()
	if f := pw.full.Load(); f == nil || f.gen < gen {
		pw.full.Store(&fullAnswer{gen: gen, rows: rows})
	}
	return rows
}
