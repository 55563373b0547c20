// Package mostdb is a Go implementation of the MOST data model and FTL
// query language for moving-objects databases, after "Modeling and Querying
// Moving Objects" (Sistla, Wolfson, Chamberlain, Dao; ICDE 1997).
//
// The library models moving objects by their motion functions instead of
// their sampled positions: a dynamic attribute holds (value, updatetime,
// function) and the database answers queries about the attribute's value at
// any time — past the last update, into the predicted future — without
// being told new positions every tick.  On top of the model sit:
//
//   - FTL, a future temporal logic query language with Until, Nexttime,
//     Eventually, Always, bounded operators and an assignment quantifier,
//     evaluated by the paper's interval-relation algorithm;
//   - the three MOST query types: instantaneous, continuous (materialized
//     Answer(CQ), maintained under updates) and persistent (anchored to
//     entry time, replaying the logged history);
//   - dynamic-attribute indexing: an R-tree over the (time, value) plane of
//     attribute trajectories, with the 3-D (x, y, time) variant for planar
//     movement;
//   - the MOST-on-a-DBMS layer: dynamic attributes stored as ordinary
//     columns of a bundled in-memory relational engine, with the 2^k
//     WHERE-clause decomposition and index-assisted rewriting;
//   - a simulator for the mobile distributed architecture: per-vehicle
//     computers, query classification, ship-objects versus broadcast-query
//     strategies, and immediate versus delayed answer delivery;
//   - fault tolerance: a write-ahead log making the database
//     crash-recoverable (AttachWAL, Recover, Checkpoint), and — in the
//     distributed simulation — deterministic fault injection with
//     acknowledged, idempotent retransmission of answers and updates.
//
// # Concurrency
//
// Database, Engine, ContinuousQuery, PersistentQuery, Trigger and the three
// index types are safe for concurrent use by multiple goroutines; value
// types (Tick, Interval, Point, MotionFunc, DynamicAttr, Query, ...) are
// immutable.  Store, SQLSystem and Sim model single-site systems and must
// be driven from one goroutine.  See ARCHITECTURE.md for the locking
// discipline and snapshot semantics.
//
// This file is the public facade: it re-exports the library's types and
// constructors so applications depend on a single import path.
package mostdb

import (
	"io"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/dist"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/index"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/mostsql"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/relstore"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/workload"
)

// ---- time ----

// Tick is one instant of the global discrete clock (§2.1's "the database
// clock").  Immutable value; safe to share.
type Tick = temporal.Tick

// Interval is a closed interval of ticks (§2.3's answer intervals).
// Immutable value; safe to share.
type Interval = temporal.Interval

// TickSet is a normalized set of ticks (disjoint, non-consecutive
// intervals) — the satisfaction sets of the appendix algorithm.  Immutable
// value; safe to share.
type TickSet = temporal.Set

// ---- geometry ----

// Point is a position in space (§2.1 POSITION values).  Immutable value;
// safe to share.
type Point = geom.Point

// Vector is a displacement or motion vector, distance per tick (§1's
// "motion vector").  Immutable value; safe to share.
type Vector = geom.Vector

// Polygon is a simple polygon in the XY plane — the regions of §3's
// INSIDE/OUTSIDE predicates.  Immutable after construction; safe to share.
type Polygon = geom.Polygon

// RectPolygon returns the axis-aligned rectangle [x0,x1] x [y0,y1] as a
// Polygon for INSIDE/OUTSIDE (§3.4).  Safe for concurrent callers.
func RectPolygon(x0, y0, x1, y1 float64) Polygon { return geom.RectPolygon(x0, y0, x1, y1) }

// RectRegion is an axis-aligned box, used to bound workload regions and
// index probes (§4).  Immutable value; safe to share.
type RectRegion = geom.Rect

// Rect builds an axis-aligned box from corner coordinates.  Safe for
// concurrent callers.
func Rect(x0, y0, x1, y1 float64) RectRegion {
	return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
}

// NewPolygon builds a polygon from vertices (§3 region predicates).  Safe
// for concurrent callers.
func NewPolygon(vertices ...Point) (Polygon, error) { return geom.NewPolygon(vertices...) }

// Dist returns the distance between two points — the DIST spatial method of
// §3.2.  Pure function; safe for concurrent callers.
func Dist(p, q Point) float64 { return geom.Dist(p, q) }

// ---- motion ----

// MotionFunc is a piecewise-polynomial (linear or quadratic) function of
// time with f(0) = 0 — the A.function sub-attribute of §2.1.  Immutable
// value; safe to share.
type MotionFunc = motion.Func

// Linear returns the function f(t) = slope*t (§2.1's base case).  Safe for
// concurrent callers.
func Linear(slope float64) MotionFunc { return motion.Linear(slope) }

// Accelerating returns the quadratic function f(t) = slope*t + accel*t^2/2
// — the paper's "nonlinear functions" extension (§7), supported exactly by
// comparisons, range queries and the indexes (POSITION attributes must
// remain piecewise linear).  Safe for concurrent callers.
func Accelerating(slope, accel float64) MotionFunc { return motion.Accelerating(slope, accel) }

// DynamicAttr is a dynamic attribute, the triple (value, updatetime,
// function) of §2.1; its value at time t is value + function(t -
// updatetime).  Immutable value; safe to share.
type DynamicAttr = motion.DynamicAttr

// Position bundles the X/Y/Z.POSITION dynamic attributes of a spatial
// object (§2.1).  Immutable value; safe to share.
type Position = motion.Position

// MovingFrom places an object at p at tick t0 with motion vector v —
// §2.1's "location of a moving object is a dynamic attribute".  Safe for
// concurrent callers.
func MovingFrom(p Point, v Vector, t0 Tick) Position { return motion.MovingFrom(p, v, t0) }

// PositionAt places a stationary object at p (motion vector zero).  Safe
// for concurrent callers.
func PositionAt(p Point, t0 Tick) Position { return motion.PositionAt(p, t0) }

// ---- the MOST data model ----

// Database is a MOST database (§2.1): classes, objects, a clock, and an
// update log kept while a persistent query holds it.  Safe for concurrent
// use by any number of updaters and readers; see ARCHITECTURE.md for the
// commit lock and published versions.  Queries read immutable published
// versions, so they never block explicit updates.
type Database = most.Database

// Class is an object class (§2.1); spatial classes carry the POSITION
// dynamic attributes.  Immutable after construction; safe to share.
type Class = most.Class

// AttrDef declares one attribute of a class as Static or Dynamic (§2.1).
// Immutable value; safe to share.
type AttrDef = most.AttrDef

// Attribute kinds (§2.1: attributes are "of two types: static and
// dynamic").
const (
	Static  = most.Static
	Dynamic = most.Dynamic
)

// Object is one immutable object revision; mutations through the Database
// produce new revisions, which is what lets a published version share
// them.  Safe to share across goroutines.
type Object = most.Object

// ObjectID identifies an object.  Immutable value; safe to share.
type ObjectID = most.ObjectID

// Value is a static attribute value (§2.1).  Immutable value; safe to
// share.
type Value = most.Value

// NewDatabase returns an empty database with the clock at 0.  The returned
// Database is safe for concurrent use.
func NewDatabase() *Database { return most.NewDatabase() }

// LoadSnapshotJSON rebuilds a database from a SnapshotJSON payload.  Safe
// for concurrent callers; the returned Database is safe for concurrent
// use.
func LoadSnapshotJSON(data []byte) (*Database, error) { return most.LoadSnapshotJSON(data) }

// WAL is an append-only write-ahead log of committed database updates.
// Attach one with Database.AttachWAL to make a database crash-recoverable:
// every commit is logged before it becomes visible, and Recover replays the
// log into a byte-identical database.  Safe for use by one attached
// Database.
type WAL = most.WAL

// RecoveryReport describes the outcome of a WAL replay: how many records
// applied cleanly and whether a torn or corrupted tail was truncated.
type RecoveryReport = most.RecoveryReport

// LegacyFormatError is the refusal of a checkpoint, log, receipt note or
// dedup sidecar written in the JSON on-disk format of earlier versions;
// such files are never read or modified.  Migrate by exporting the state with the old version's
// snapshot (SnapshotJSON, or SnapshotSave over the network) and loading it
// into a fresh database or data directory.
type LegacyFormatError = most.LegacyFormatError

// NewWAL returns a write-ahead log that appends records to w.
func NewWAL(w io.Writer) *WAL { return most.NewWAL(w) }

// OpenWAL opens (or creates) a file-backed write-ahead log, positioned to
// append after any existing records.
func OpenWAL(path string) (*WAL, error) { return most.OpenWAL(path) }

// Recover rebuilds a database from an optional snapshot plus a WAL byte
// stream.  Corrupted or truncated logs fail safe: replay stops at the
// first bad record, the report says what was truncated, and the database
// reflects every record before it.  Never panics on hostile input.
func Recover(snapshot, wal []byte) (*Database, *RecoveryReport, error) {
	return most.Recover(snapshot, wal)
}

// RecoverFiles is Recover reading the snapshot and WAL from files; either
// path may be empty.
func RecoverFiles(snapPath, walPath string) (*Database, *RecoveryReport, error) {
	return most.RecoverFiles(snapPath, walPath)
}

// NewClass declares an object class (§2.1).  Safe for concurrent callers.
func NewClass(name string, spatial bool, attrs ...AttrDef) (*Class, error) {
	return most.NewClass(name, spatial, attrs...)
}

// NewObject builds an object of a class (§2.1).  Safe for concurrent
// callers; the object is immutable.
func NewObject(id ObjectID, class *Class) (*Object, error) { return most.NewObject(id, class) }

// Float wraps a number as a static attribute value (§2.1).  Safe for
// concurrent callers.
func Float(f float64) Value { return most.Float(f) }

// Str wraps a string value (§2.1).  Safe for concurrent callers.
func Str(s string) Value { return most.Str(s) }

// Bool wraps a boolean value (§2.1).  Safe for concurrent callers.
func Bool(b bool) Value { return most.Bool(b) }

// Position attribute names of spatial classes (§2.1's X.POSITION,
// Y.POSITION, Z.POSITION).
const (
	XPosition = most.XPosition
	YPosition = most.YPosition
	ZPosition = most.ZPosition
)

// ---- FTL ----

// Query is a parsed FTL query (§3: RETRIEVE ... FROM ... WHERE formula).
// Immutable after parsing; safe to share and to evaluate concurrently.
type Query = ftl.Query

// ParseQuery parses "RETRIEVE ... FROM ... WHERE <FTL formula>" (§3.1
// syntax).  Safe for concurrent callers.
func ParseQuery(src string) (*Query, error) { return ftl.Parse(src) }

// MustParseQuery parses a query and panics on error (§3.1).  Safe for
// concurrent callers.
func MustParseQuery(src string) *Query { return ftl.MustParse(src) }

// Relation is a materialized FTL answer (§2.3, appendix): instantiations
// with the interval sets during which they satisfy the query.  Immutable
// once returned by an evaluation; safe to share.
type Relation = eval.Relation

// Answer is one (instantiation, begin, end) tuple of Answer(CQ) (§2.3).
// Immutable value; safe to share.
type Answer = eval.Answer

// Val is a value an FTL variable takes in an answer (§3.3
// instantiations).  Immutable value; safe to share.
type Val = eval.Val

// ---- query engine ----

// Engine evaluates instantaneous, continuous and persistent queries
// (§2.3) against one Database.  Safe for concurrent use: evaluations run
// on immutable database snapshots, and maintenance of registered queries
// coalesces under concurrent updates.
type Engine = query.Engine

// QueryOptions configure an evaluation (§2.3, §3): horizon (query
// expiry), regions and the assignment-term discretization cap.  INSIDE
// atoms need no option to use an index: the database keeps a grid index
// (§4) inside every snapshot of a spatial class a query has probed.
// Immutable value; safe to share.
type QueryOptions = query.Options

// ContinuousQuery is a registered continuous query with a maintained
// Answer(CQ) (§2.3): evaluated once, reevaluated only when a relevant
// update commits.  Safe for concurrent use; Answer/Current may be called
// while maintenance runs.
type ContinuousQuery = query.Continuous

// PersistentQuery is a registered persistent query anchored at entry time
// (§2.3): reevaluated over the logged history on every update.  Its
// listeners fire only when a reevaluation changes the answer relation.
// Safe for concurrent use.
type PersistentQuery = query.Persistent

// Trigger couples a continuous query with an action — the temporal
// triggers of §2.3.  Safe for concurrent use.
type Trigger = query.Trigger

// Row is one presented answer instantiation (§3.5 per-tick presentation).
// Treat as immutable once returned.
type Row = query.Row

// NewEngine returns a query engine bound to db, subscribed to its updates
// (§2.3 continuous-query maintenance).  The returned Engine is safe for
// concurrent use.
func NewEngine(db *Database) *Engine { return query.NewEngine(db) }

// ---- indexing ----

// AttrIndex is the dynamic-attribute index of §4: a (time, value)-plane
// R-tree over trajectory strips within a finite window.  Safe for
// concurrent use: probes share a read lock, mutators take the write lock.
type AttrIndex = index.AttrIndex

// MotionIndex is the 3-D (x, y, time) variant of §4 for objects moving in
// the plane.  Safe for concurrent use, like AttrIndex.
type MotionIndex = index.MotionIndex

// NewAttrIndex returns an index covering [base, base+T) (§4's finite
// indexed window).  Safe for concurrent callers.
func NewAttrIndex(base, T Tick) *AttrIndex { return index.NewAttrIndex(base, T) }

// NewMotionIndex returns a motion index covering [base, base+T) (§4).
// Safe for concurrent callers.
func NewMotionIndex(base, T Tick) *MotionIndex { return index.NewMotionIndex(base, T) }

// GridIndex is the alternative uniform-grid mechanism for indexing dynamic
// attributes (the §7 future-work comparison, run in experiment E11).  Safe
// for concurrent use, like AttrIndex.
type GridIndex = index.GridIndex

// NewGridIndex returns a grid index over time [base, base+T) and values
// [vMin, vMax) at the given cell resolution (§4 variant).  Safe for
// concurrent callers.
func NewGridIndex(base, T Tick, vMin, vMax float64, cols, rows int) *GridIndex {
	return index.NewGridIndex(base, T, vMin, vMax, cols, rows)
}

// ---- MOST on a DBMS ----

// Store is the bundled in-memory relational DBMS standing in for §5.1's
// "existing DBMS".  Not synchronized: drive from one goroutine.
type Store = relstore.Store

// NewStore returns an empty store (§5.1).  The returned Store must be
// driven from one goroutine.
func NewStore() *Store { return relstore.NewStore() }

// SQLSystem is the MOST layer over a Store (§5.1): dynamic attributes as
// ordinary columns, 2^k WHERE decomposition, index-assisted rewriting.
// Not synchronized: drive from one goroutine.
type SQLSystem = mostsql.System

// NewSQLSystem wraps a store; now supplies the clock (§5.1).  The returned
// system must be driven from one goroutine.
func NewSQLSystem(store *Store, now func() Tick) *SQLSystem { return mostsql.New(store, now) }

// SQLValue is a value of the bundled relational DBMS (§5.1).  Immutable
// value; safe to share.
type SQLValue = relstore.Value

// SQLNum wraps a number for the relational layer (§5.1).  Safe for
// concurrent callers.
func SQLNum(f float64) SQLValue { return relstore.Num(f) }

// SQLStr wraps a string for the relational layer (§5.1).  Safe for
// concurrent callers.
func SQLStr(s string) SQLValue { return relstore.Str(s) }

// SQLBool wraps a bool for the relational layer (§5.1).  Safe for
// concurrent callers.
func SQLBool(b bool) SQLValue { return relstore.Bool(b) }

// ---- distributed ----

// Sim is the mobile distributed simulation of §5.2–5.3: per-object mobile
// computers, query classification, strategy and delivery costs.  Not
// synchronized: drive from one goroutine.
type Sim = dist.Sim

// NewSim returns an empty simulation (§5.2).  The returned Sim must be
// driven from one goroutine.
func NewSim(seed int64) *Sim { return dist.NewSim(seed) }

// Object-query strategies (§5.3: ship the objects to the query versus
// broadcast the query to the objects).
const (
	ShipObjects    = dist.ShipObjects
	BroadcastQuery = dist.BroadcastQuery
)

// Delivery modes for Answer(CQ) transmission to a mobile client (§5.3:
// immediate versus delayed delivery).
const (
	Immediate = dist.Immediate
	Delayed   = dist.Delayed
)

// ---- workloads ----

// FleetSpec parameterizes a synthetic vehicle fleet (the motivating
// vehicles of §1).  Immutable value; safe to share.
type FleetSpec = workload.FleetSpec

// Fleet builds a database of moving vehicles (§1 scenario).  Safe for
// concurrent callers; the returned Database is safe for concurrent use.
func Fleet(spec FleetSpec) (*Database, error) { return workload.Fleet(spec) }

// AirspaceSpec parameterizes an air-traffic scenario (§1's ATC queries).
// Immutable value; safe to share.
type AirspaceSpec = workload.AirspaceSpec

// Airspace builds a database of aircraft around an airport (§1).  Safe for
// concurrent callers; the returned Database is safe for concurrent use.
func Airspace(spec AirspaceSpec) (*Database, error) { return workload.Airspace(spec) }

// MotelsSpec parameterizes the MOTELS relation (§1's motel query).
// Immutable value; safe to share.
type MotelsSpec = workload.MotelsSpec

// AddMotels inserts stationary motels into a database (§1).  Safe for
// concurrent callers.
func AddMotels(db *Database, spec MotelsSpec) error { return workload.AddMotels(db, spec) }

// ---- network service ----

// Server serves a Database and Engine over TCP using the internal/wire
// protocol: pipelined requests, batched updates, snapshots, and server-push
// streaming of continuous-query answer changes.  Safe for concurrent use.
type Server = server.Server

// ServerConfig tunes a Server; the zero value serves with sane defaults.
type ServerConfig = server.Config

// NewServer returns a network server over db and eng (eng must be bound to
// db).  Start it with ListenAndServe or Serve; stop it with Shutdown.
func NewServer(db *Database, eng *Engine, cfg ServerConfig) *Server {
	return server.New(db, eng, cfg)
}

// ServerRecoveryInfo reports what NewDurableServer rebuilt from disk.
type ServerRecoveryInfo = server.RecoveryInfo

// NewDurableServer returns a crash-safe network server persisting every
// committed mutation to a write-ahead log under dir, with periodic
// checkpoints (ServerConfig.CheckpointEvery) bounding replay time.  On
// startup it recovers the database — and the idempotence receipts that
// make client retries exactly-once across a crash — from the checkpoint
// and log; a fresh directory starts from seed() (nil seed = empty
// database).  A receipt that does not decode fails recovery, and a
// directory in an earlier JSON format is refused untouched with a
// *LegacyFormatError.  Stop it with Shutdown, which checkpoints before
// closing.
func NewDurableServer(dir string, cfg ServerConfig, seed func() *Database) (*Server, *ServerRecoveryInfo, error) {
	return server.NewDurable(dir, cfg, seed)
}

// Client is a network client for a Server: connection management,
// idempotent retry of mutating requests across reconnects, and a Subscribe
// API mirroring the in-process ContinuousQuery.  Safe for concurrent use.
type Client = client.Client

// ClientSubscription is a client-side continuous query: it holds the last
// pushed Answer(CQ) and presents the rows current at any tick locally,
// without a round trip.
type ClientSubscription = client.Subscription

// ClientOption configures Dial (WithTimeout, WithClientID, WithRetries,
// WithProtocol, ...).
type ClientOption = client.Option

// WithTimeout bounds each round trip, including retries.
func WithTimeout(d time.Duration) ClientOption { return client.WithTimeout(d) }

// WithRetries caps reconnect-and-retransmit attempts per call.
func WithRetries(n int) ClientOption { return client.WithRetries(n) }

// WithClientID sets the client identity that keys the server's
// idempotence cache; stable IDs give retried mutations exactly-once
// application across reconnects.
func WithClientID(id string) ClientOption { return client.WithClientID(id) }

// WithProtocol caps the wire protocol version the client offers during the
// Hello handshake (2 = full-answer NOTIFYs, 3 = delta NOTIFYs).  The
// session runs at min(client, server); by default clients offer the newest
// version they implement.  See PROTOCOL.md for the negotiation rules.
func WithProtocol(v int) ClientOption { return client.WithProtocol(v) }

// WithBackoff sets the client's retry/reconnect backoff schedule: delays
// double from base up to max, with ±25% jitter to desynchronize fleets.
func WithBackoff(base, max time.Duration) ClientOption { return client.WithBackoff(base, max) }

// WithJitterSeed fixes the backoff jitter seed (default: derived from the
// client ID) for reproducible retry schedules in tests.
func WithJitterSeed(seed int64) ClientOption { return client.WithJitterSeed(seed) }

// ClientServerError is a request the server received and refused; Code
// distinguishes retryable shedding from final refusals.
type ClientServerError = client.ServerError

// Dial connects to a Server at addr.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return client.Dial(addr, opts...)
}
