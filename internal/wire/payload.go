package wire

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

// This file defines the typed frame payloads and the conversions between
// wire values and the evaluator's eval.Val.  Every payload has one
// encoding, the binary grammar of binary.go, which round-trips every value
// exactly (float64 via IEEE-754 bits, ticks as int64) — what lets the
// loopback oracle demand bit-identical answers across the wire.

// HelloReq introduces a client.  ClientID keys the server's idempotence
// cache: a request retried on a new connection under the same ClientID and
// request ID is not applied twice (the PR-2 reliable-delivery semantics on
// a real socket).  Empty disables retry deduplication.
//
// MaxVersion is the highest protocol version the client speaks.  Hello
// frames themselves are always MinProtocolVersion, so negotiation works
// against any peer.
//
// Epoch stamps the client's session generation: a self-healing client
// increments it on every reconnect attempt, so the server can tell a
// resumed client from a new one and fence a zombie predecessor session
// carrying a lower epoch.  0 opts out of epoch tracking entirely.
// Peer marks the connection as cluster-internal (another node's router or
// handoff client).  Peer sessions may carry bulk frames (object state
// transfers) larger than the client-facing payload cap, so the server
// raises the decoder bound for them (Config.PeerMaxPayload) after the
// handshake; ordinary connections keep the hostile-input limit.
type HelloReq struct {
	ClientID   string
	MaxVersion int
	Epoch      uint64
	Peer       bool
}

// HelloResp reports the server identity and the negotiated session
// protocol version: min(HelloReq.MaxVersion, server's maximum).  Every
// frame after this response carries exactly this version.
//
// Resumed is true when the server recognized the ClientID from an earlier,
// lower-epoch session: the client's idempotence cache is still bound, and
// re-registered subscriptions should reconcile rather than assume a fresh
// server.
type HelloResp struct {
	Server  string
	Version int
	Resumed bool
}

// QueryReq is an instantaneous FTL query.  Horizon <= 0 selects the
// server's default.  DeadlineMS, when positive, is the caller's remaining
// per-attempt budget in milliseconds: the server refuses (ErrorResp code
// "deadline_exceeded") work whose budget expired while it queued for
// admission, instead of computing an answer nobody is waiting for.
type QueryReq struct {
	Src        string
	Horizon    temporal.Tick
	DeadlineMS int64
}

// QueryResp carries the instantiations satisfied at evaluation time.
type QueryResp struct {
	Now  temporal.Tick
	Rows [][]Value
}

// Update op kinds for UpdateOp.Op.
const (
	OpSetMotion = "set_motion"
	OpSetStatic = "set_static"
	OpInsert    = "insert"
	OpDelete    = "delete"
)

// UpdateOp is one explicit update in a batch.
type UpdateOp struct {
	Op string
	ID string
	// set_motion
	VX float64
	VY float64
	// set_static
	Attr  string
	Value *Value
	// insert: the object in its transfer encoding (most.EncodeObject)
	Object []byte
}

// UpdateBatchReq applies explicit updates in order.  Application stops at
// the first failing op; the response reports how many were applied.
// DeadlineMS is the per-attempt budget, as on QueryReq.
type UpdateBatchReq struct {
	Ops        []UpdateOp
	DeadlineMS int64
}

// UpdateBatchResp acknowledges a batch.
type UpdateBatchResp struct {
	Applied int
	Now     temporal.Tick
	Version uint64
}

// AdvanceReq moves the clock forward by D ticks.
type AdvanceReq struct {
	D temporal.Tick
}

// AdvanceResp reports the clock after the advance.
type AdvanceResp struct {
	Now temporal.Tick
}

// ObjectsReq lists objects; Class == "" lists every object.
type ObjectsReq struct {
	Class string
}

// ObjectInfo is one object row with its position at the server's current
// tick (X/Y meaningless when HasPos is false, e.g. non-spatial classes).
type ObjectInfo struct {
	ID     string
	Class  string
	HasPos bool
	X      float64
	Y      float64
}

// ObjectsResp carries the object listing.
type ObjectsResp struct {
	Now     temporal.Tick
	Objects []ObjectInfo
}

// SnapshotResp carries a database snapshot: most.SnapshotJSON bytes, the
// human-readable export, carried opaquely.
type SnapshotResp struct {
	Data []byte
}

// SnapshotLoadReq replaces the server's database with the snapshot.  Every
// active subscription (all sessions) is closed with an OpSubClosed push.
type SnapshotLoadReq struct {
	Data []byte
}

// SnapshotLoadResp acknowledges the swap.
type SnapshotLoadResp struct {
	Now     temporal.Tick
	Objects int
}

// SubscribeReq registers a continuous query on the session's connection.
type SubscribeReq struct {
	Src     string
	Horizon temporal.Tick
}

// SubscribeResp acknowledges a subscription with the initial materialized
// Answer(CQ).
type SubscribeResp struct {
	SubID  uint64
	Now    temporal.Tick
	Answer []AnswerRow
}

// UnsubscribeReq cancels a subscription.
type UnsubscribeReq struct {
	SubID uint64
}

// Notify is the server push after a maintenance round.  Seq increases by
// one per maintenance round on the server; gaps mean rounds were coalesced
// while the connection was backed up (the latest answer always supersedes
// skipped ones).
//
// In the full form (the only form of protocol version 2) Answer is
// the whole new Answer(CQ).  In the delta form (Delta set; version 3
// only) the push is relative to the answer the client holds at sequence
// number Base: Gone lists the instantiations that left it, and Answer
// holds every row of each instantiation that arrived or changed, which
// replace that instantiation's rows.  Instantiations named in neither keep
// their rows.
type Notify struct {
	SubID  uint64
	Seq    uint64
	Answer []AnswerRow
	Delta  bool
	Base   uint64
	Gone   [][]Value
}

// SubClosed is the server push ending a subscription (database replaced,
// server drain, or query error); no further notifies follow.
type SubClosed struct {
	SubID  uint64
	Reason string
}

// Machine-readable error codes for ErrorResp.Code.  Plain request failures
// (bad query, unknown object) carry no code.
const (
	// CodeOverloaded marks a request shed by admission control; the
	// request was NOT executed and a retry after backoff is safe and
	// expected (the one server error clients retry).
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded marks a request whose DeadlineMS budget ran
	// out before execution started; it was not executed, but the caller's
	// own deadline has passed so a blind retry is pointless.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeStaleEpoch rejects a Hello carrying an epoch lower than one the
	// server has already seen for that ClientID: a newer session of the
	// same client has connected, and this one is a zombie.
	CodeStaleEpoch = "stale_epoch"
	// CodeWrongZone rejects an update addressed to an object this node
	// does not own.  The request was NOT executed; ErrorResp.Addr names
	// the owning node when known, and the caller should redirect there.
	CodeWrongZone = "wrong_zone"
)

// ErrorResp reports a failed request.  Code, when set, is one of the Code*
// constants and tells programs how to react; Msg is for humans.  Addr
// accompanies CodeWrongZone: the address of the node believed to own the
// rejected object ("" when unknown — the caller should refresh the zone
// map and retry by position).
type ErrorResp struct {
	Msg  string
	Code string
	Addr string
	// Redirects accompanies a CodeWrongZone refusal of a mixed batch:
	// element i names the node that owns the batch's op i ("" when the
	// refusing node owns it, or when the owner is unknown).  It lets a
	// router regroup a stale batch in one step instead of probing
	// ownership op by op.
	Redirects []string
}

// ---- cluster payloads (PROTOCOL.md §7) ----

// Zone is one rectangular region of the partitioned plane and the address
// of the node that owns the moving objects inside it.
type Zone struct {
	ID   int
	MinX float64
	MinY float64
	MaxX float64
	MaxY float64
	Addr string
}

// ZoneMapResp answers OpZoneMap (the request carries no payload): the full
// cluster topology.  Epoch increases whenever the map changes (zone split,
// node replacement) so routers can detect a stale cache.  Replicated lists
// the object classes present on every node (small shared datasets — POIs,
// bus fleets — that joins may reference); updates to those classes are
// broadcast rather than routed.
type ZoneMapResp struct {
	Epoch      uint64
	Zones      []Zone
	Replicated []string
}

// HandoffReq transfers ownership of moving objects between nodes when
// their trajectories cross a zone boundary.  One request carries every
// object a sender moves to the same receiver in one scan, so a rebalance
// barrier costs one round trip and one commit per destination, not one
// per object.
type HandoffReq struct {
	From    string
	Objects []HandoffObject
}

// HandoffObject is one transferred object.  Object is the full motion
// record in its transfer encoding (most.EncodeObject), which is all
// the state a deterministic CQ engine needs to rebuild the object's
// in-flight continuous-query contributions on the receiver.
//
// Version is the transfer fence: the receiver remembers the highest
// version accepted per object ID and acknowledges-without-applying any
// transfer at or below it, so retried and reordered handoffs (crash
// during handoff, duplicate delivery) apply exactly once.
type HandoffObject struct {
	ID      string
	Version uint64
	Object  []byte
}

// HandoffResp acknowledges a transfer, one entry per object in request
// order.  Accepted[i] is false when the version fence already covered
// that object (a duplicate); either way the sender may release it — the
// receiver durably owns it.
type HandoffResp struct {
	Accepted []bool
	Now      temporal.Tick
}

// ---- values ----

// Value is the wire form of eval.Val.
type Value struct {
	Kind uint8
	Obj  string
	Num  float64
	Str  string
	Bool bool
}

// FromVal converts an evaluator value.
func FromVal(v eval.Val) Value {
	return Value{Kind: uint8(v.Kind), Obj: string(v.Obj), Num: v.Num, Str: v.Str, Bool: v.Bool}
}

// Val converts back to an evaluator value.
func (v Value) Val() eval.Val {
	return eval.Val{Kind: eval.ValKind(v.Kind), Obj: most.ObjectID(v.Obj), Num: v.Num, Str: v.Str, Bool: v.Bool}
}

// String renders the value exactly as eval.Val does.
func (v Value) String() string { return v.Val().String() }

// FromRows converts presented rows.
func FromRows(rows [][]eval.Val) [][]Value {
	out := make([][]Value, len(rows))
	for i, r := range rows {
		vals := make([]Value, len(r))
		for j, v := range r {
			vals[j] = FromVal(v)
		}
		out[i] = vals
	}
	return out
}

// AnswerRow is one (instantiation, maximal interval) answer tuple.
type AnswerRow struct {
	Vals  []Value
	Start temporal.Tick
	End   temporal.Tick
}

// FromRelation flattens a materialized relation into answer rows in the
// relation's canonical order (sorted by instantiation, then interval).
func FromRelation(rel *eval.Relation) []AnswerRow {
	return AppendRelation(nil, rel)
}

// AppendRelation is FromRelation into a caller-owned scratch slice: rows
// are appended to dst (pass dst[:0] to reuse its capacity, including the
// per-row Vals backing arrays), so a notification pump that converts one
// relation per maintenance round stops allocating in steady state.
func AppendRelation(dst []AnswerRow, rel *eval.Relation) []AnswerRow {
	if rel == nil {
		return dst
	}
	for _, a := range rel.Answers() {
		var vals []Value
		if n := len(dst); n < cap(dst) {
			// Reuse the retired row slot's Vals array when rewriting in place.
			vals = dst[:cap(dst)][n].Vals[:0]
		}
		for _, v := range a.Vals {
			vals = append(vals, FromVal(v))
		}
		dst = append(dst, AnswerRow{Vals: vals, Start: a.Interval.Start, End: a.Interval.End})
	}
	return dst
}

// InstanceKey is the canonical key of an instantiation, eval.Key of its
// values: answer rows are ordered by it (byte-wise), and delta-form
// notifies are applied by it.
func InstanceKey(vals []Value) string {
	var buf [64]byte
	return string(AppendInstanceKey(buf[:0], vals))
}

// AppendInstanceKey appends InstanceKey(vals) to dst.
func AppendInstanceKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = eval.AppendKey(dst, v.Val())
	}
	return dst
}

// InstanceEnd returns the end of the run of rows starting at i that share
// rows[i]'s instantiation: answers list an instantiation's intervals
// consecutively, so rows[i:InstanceEnd(rows, i)] is all of them.
func InstanceEnd(rows []AnswerRow, i int) int {
	j := i + 1
	for j < len(rows) && slices.Equal(rows[j].Vals, rows[i].Vals) {
		j++
	}
	return j
}

// FromDelta converts a maintenance patch into the fields of a delta-form
// Notify: the departed instantiations, and the rows of the arrived or
// changed ones, both in canonical order.  Rows of one instantiation share
// one Vals slice.
func FromDelta(d eval.Delta) (gone [][]Value, rows []AnswerRow) {
	for _, t := range d.Gone {
		gone = append(gone, fromVals(t.Vals))
	}
	for _, t := range d.Put {
		vals := fromVals(t.Vals)
		for _, iv := range t.Times.Intervals() {
			rows = append(rows, AnswerRow{Vals: vals, Start: iv.Start, End: iv.End})
		}
	}
	return gone, rows
}

func fromVals(vals []eval.Val) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = FromVal(v)
	}
	return out
}

// RowsAt presents the answer rows whose interval contains t — the client
// side of §3.5's per-tick presentation: between notifies, presentation is
// a local lookup, no round trip.
func RowsAt(answer []AnswerRow, t temporal.Tick) [][]Value {
	var out [][]Value
	for _, a := range answer {
		if a.Start <= t && t <= a.End {
			out = append(out, a.Vals)
		}
	}
	return out
}

// CanonicalAnswers renders answer rows as a sorted, uniquely delimited
// multiset string, the comparison key the loopback oracle uses to demand
// bit-identical answers across the wire.
func CanonicalAnswers(answer []AnswerRow) string {
	keys := make([]string, len(answer))
	for i, a := range answer {
		var b strings.Builder
		for _, v := range a.Vals {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		b.WriteString(strconv.FormatInt(int64(a.Start), 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatInt(int64(a.End), 10))
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
