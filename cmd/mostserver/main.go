// mostserver serves a moving-objects database over TCP using the MOST wire
// protocol: pipelined requests, batched motion updates, FTL queries,
// snapshot save/load, and server-push streaming of continuous-query answer
// changes.  It loads the same synthetic world as mostql (a vehicle fleet
// plus the MOTELS relation, with the named regions P, Q and downtown), so
// `mostql -connect` against a fresh mostserver behaves like a local mostql.
//
// Usage:
//
//	mostserver [-addr :7654] [-n 100] [-seed 1] [-horizon 500] [-http :6060]
//	           [-proto 2] [-wal DIR] [-checkpoint-every 256] [-max-inflight 0]
//	           [-zone x0,y0,x1,y1] [-peers addr=x0,y0,x1,y1;...]
//	           [-advertise host:port] [-replicated Class,...]
//
// With -zone set the process serves one cluster node: it owns the given
// rectangle of the plane, and -peers lists every other node's address and
// zone.  All nodes must be started with equivalent maps (same rectangles,
// same addresses).  The node seeds the same synthetic world, prunes it to
// the objects inside its zone, and from then on hands objects crossing a
// zone seam to the owning peer (PROTOCOL.md §7); -advertise is the address
// peers and the zone map know this node by (default: 127.0.0.1-qualified
// -addr), and -replicated names classes kept whole on every node instead
// of partitioned.  Combine with -wal for a crash-safe node: a recovered
// shard keeps its objects and quarantines any that were mid-handoff.
//
// -proto caps the wire protocol version the server offers during the Hello
// handshake (PROTOCOL.md): 2 forces full-answer NOTIFYs for every
// session, and the default offers the newest implemented version
// (currently 3, with delta NOTIFYs) and lets each client negotiate down.
//
// With -wal set the server is durable: every committed mutation is
// write-ahead logged under DIR before its response is sent, and on startup
// the database — plus the idempotence receipts that make client retries
// exactly-once across a crash — is recovered from DIR's checkpoint and log.
// The synthetic world seeds only a fresh directory; a recovered one keeps
// its own state.  -checkpoint-every bounds replay time by checkpointing
// after every N mutating requests (0 = only on clean shutdown).  A failed
// recovery is fatal: the process reports the corruption and exits non-zero
// rather than serving from a guess.
//
// With -http set, /obs, /debug/vars, /debug/pprof, /healthz and /readyz are
// served on that address; /readyz answers 503 while recovering or draining.
// -max-inflight > 0 sheds requests beyond that concurrency with a
// retryable `overloaded` error instead of queueing without bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	mostdb "github.com/mostdb/most"
	"github.com/mostdb/most/internal/cluster"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7654", "TCP listen address")
	n := flag.Int("n", 100, "fleet size")
	seed := flag.Int64("seed", 1, "workload seed")
	horizon := flag.Int64("horizon", 500, "default query horizon (ticks)")
	httpAddr := flag.String("http", "", "serve /obs, /debug/pprof, /healthz, /readyz on this address (e.g. :6060)")
	proto := flag.Int("proto", 0, "highest wire protocol version to offer (2 = full NOTIFYs only, 0 = newest)")
	walDir := flag.String("wal", "", "durable mode: write-ahead log and checkpoints under this directory")
	checkpointEvery := flag.Int("checkpoint-every", 256, "checkpoint after every N mutating requests (0 = only on clean shutdown; needs -wal)")
	maxInflight := flag.Int("max-inflight", 0, "shed requests beyond this concurrency (0 = unbounded)")
	zoneFlag := flag.String("zone", "", "cluster mode: the rectangle this node owns, as x0,y0,x1,y1")
	peersFlag := flag.String("peers", "", "cluster mode: peer zones, as addr=x0,y0,x1,y1 entries separated by ';'")
	advertise := flag.String("advertise", "", "cluster mode: address peers know this node by (default: 127.0.0.1-qualified -addr)")
	replicatedFlag := flag.String("replicated", "", "cluster mode: comma-separated classes kept whole on every node")
	flag.Parse()

	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mostserver: "+format+"\n", args...)
		os.Exit(1)
	}
	var node *cluster.Node
	var zoneMap *cluster.ZoneMap
	selfAddr := ""
	if *zoneFlag != "" {
		selfAddr = *advertise
		if selfAddr == "" {
			selfAddr = *addr
			if strings.HasPrefix(selfAddr, ":") {
				selfAddr = "127.0.0.1" + selfAddr
			}
		}
		own, err := parseZone(*zoneFlag, selfAddr)
		if err != nil {
			fatalf("-zone: %v", err)
		}
		zones := []wire.Zone{own}
		if *peersFlag != "" {
			for _, entry := range strings.Split(*peersFlag, ";") {
				peerAddr, rect, ok := strings.Cut(strings.TrimSpace(entry), "=")
				if !ok {
					fatalf("-peers: entry %q is not addr=x0,y0,x1,y1", entry)
				}
				z, err := parseZone(rect, peerAddr)
				if err != nil {
					fatalf("-peers: entry %q: %v", entry, err)
				}
				zones = append(zones, z)
			}
		}
		var replicated []string
		for _, c := range strings.Split(*replicatedFlag, ",") {
			if c = strings.TrimSpace(c); c != "" {
				replicated = append(replicated, c)
			}
		}
		zoneMap, err = cluster.NewMap(zones, replicated)
		if err != nil {
			fatalf("%v", err)
		}
		// The per-boot nonce keeps this incarnation's peer request IDs
		// distinct from a previous process's recovered receipts.
		node = cluster.NewNode(fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()), nil)
		node.Install(zoneMap)
	} else if *peersFlag != "" || *advertise != "" || *replicatedFlag != "" {
		fatalf("-peers/-advertise/-replicated need -zone")
	}

	reg := obs.New()
	health := &obs.Health{}
	// The health endpoints come up before recovery so orchestrators can
	// watch /readyz flip starting → recovering → ready.
	if *httpAddr != "" {
		obs.Publish("mostserver", reg)
		mux := obs.NewServeMux(reg)
		health.Mount(mux)
		go http.ListenAndServe(*httpAddr, mux)
	}

	world := func() *mostdb.Database {
		db, err := mostdb.Fleet(mostdb.FleetSpec{
			N:        *n,
			Region:   mostdb.Rect(0, 0, 1000, 1000),
			MaxSpeed: 3,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mostserver:", err)
			os.Exit(1)
		}
		if err := mostdb.AddMotels(db, mostdb.MotelsSpec{N: 30, Region: mostdb.Rect(0, 0, 1000, 1000), Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "mostserver:", err)
			os.Exit(1)
		}
		return db
	}

	cfg := mostdb.ServerConfig{
		BaseOptions: mostdb.QueryOptions{
			Horizon: mostdb.Tick(*horizon),
			Regions: map[string]mostdb.Polygon{
				"P":        mostdb.RectPolygon(100, 100, 300, 300),
				"Q":        mostdb.RectPolygon(600, 600, 900, 900),
				"downtown": mostdb.RectPolygon(400, 400, 600, 600),
			},
		},
		Reg:             reg,
		Name:            "mostserver",
		MaxProtocol:     *proto,
		Health:          health,
		MaxInflight:     *maxInflight,
		CheckpointEvery: *checkpointEvery,
	}
	if node != nil {
		cfg.Cluster = node
		cfg.PeerMaxPayload = 64 << 20
	}

	var srv *mostdb.Server
	fresh := true
	if *walDir != "" {
		durable, info, err := mostdb.NewDurableServer(*walDir, cfg, world)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mostserver: recovery from %s failed: %v\n", *walDir, err)
			var legacy *mostdb.LegacyFormatError
			if errors.As(err, &legacy) {
				fmt.Fprintln(os.Stderr, "mostserver: the directory was left untouched; to migrate, serve it with the old mostserver, `.save FILE` from `mostql -connect`, then `.load FILE` into this server on an empty -wal directory")
			} else {
				fmt.Fprintln(os.Stderr, "mostserver: refusing to serve partial state; inspect wal.log / checkpoint.bin or move the directory aside to reseed")
			}
			os.Exit(1)
		}
		srv = durable
		fresh = info.Fresh
		if info.Fresh {
			fmt.Printf("mostserver: fresh durable start in %s (seeded world logged as base image)\n", *walDir)
		} else {
			records := 0
			if info.Report != nil {
				records = info.Report.Records
				if info.Report.Truncated {
					fmt.Fprintf(os.Stderr, "mostserver: wal replay stopped early (%s) — expected after a crash mid-checkpoint, state is complete\n", info.Report.Reason)
				}
			}
			fmt.Printf("mostserver: recovered %d objects at tick %d from %s (%d wal records, %d receipts, %d partials) in %s\n",
				info.Objects, info.Now, *walDir, records, info.Receipts, info.Partials, info.Elapsed.Round(time.Millisecond))
		}
	} else {
		db := world()
		eng := mostdb.NewEngine(db)
		db.Instrument(reg)
		eng.Instrument(reg)
		srv = mostdb.NewServer(db, eng, cfg)
	}

	if node != nil {
		node.Bind(srv, selfAddr)
		if fresh {
			// Shard bootstrap: the seeded world is built whole on every
			// node, then pruned to the objects this zone owns.
			if err := node.Prune(); err != nil {
				fatalf("prune shard: %v", err)
			}
			fmt.Printf("mostserver: cluster node %s owns zone %s (%d zones in map)\n", selfAddr, *zoneFlag, len(zoneMap.Zones))
		} else {
			// A recovered shard may hold objects that were mid-handoff at
			// the crash: freeze them and re-offer to the zone owner rather
			// than accept writes on possibly-released copies.
			q, err := node.Quarantine()
			if err != nil {
				fatalf("quarantine recovered shard: %v", err)
			}
			fmt.Printf("mostserver: cluster node %s recovered; %d out-of-zone objects quarantined for re-handoff\n", selfAddr, q)
		}
	}

	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "mostserver:", err)
		os.Exit(1)
	}
	fmt.Printf("mostserver: serving on %s; horizon %d\n", srv.Addr(), *horizon)
	if *httpAddr != "" {
		fmt.Printf("mostserver: observability on http://%s/obs, /debug/pprof/, /healthz, /readyz\n", *httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "mostserver: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mostserver: shutdown:", err)
		os.Exit(1)
	}
}

// parseZone parses "x0,y0,x1,y1" into a zone owned by addr.
func parseZone(rect, addr string) (wire.Zone, error) {
	parts := strings.Split(strings.TrimSpace(rect), ",")
	if len(parts) != 4 {
		return wire.Zone{}, fmt.Errorf("want x0,y0,x1,y1, got %q", rect)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return wire.Zone{}, fmt.Errorf("coordinate %q: %v", p, err)
		}
		v[i] = f
	}
	return wire.Zone{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3], Addr: addr}, nil
}
