// mostql is an interactive FTL shell over a synthetic moving-objects
// database.  It loads a vehicle fleet plus the MOTELS relation, defines a
// few named regions, and evaluates FTL queries typed at the prompt.
//
// Usage:
//
//	mostql [-n 100] [-seed 1] [-horizon 500]
//	mostql -connect host:7654        # drive a remote mostserver instead
//	mostql -connect host:7654 -proto 2   # force full-answer NOTIFYs (no deltas)
//
// Commands:
//
//	RETRIEVE ... [FROM ...] WHERE ...   evaluate an instantaneous query
//	.continuous <query>                 register a continuous query
//	.tick [n]                           advance the clock
//	.turn <id> <vx> <vy>                update an object's motion vector
//	.objects [class]                    list objects with current positions
//	.regions                            list named regions
//	.save <file> / .load <file>         snapshot the database to/from JSON
//	.help                               this text
//	.quit                               exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	mostdb "github.com/mostdb/most"
)

type shell struct {
	db      *mostdb.Database
	engine  *mostdb.Engine
	opts    mostdb.QueryOptions
	cont    map[int]*mostdb.ContinuousQuery
	contSrc map[int]string
	nextCQ  int
}

func main() {
	n := flag.Int("n", 100, "fleet size")
	seed := flag.Int64("seed", 1, "workload seed")
	horizon := flag.Int64("horizon", 500, "query expiry horizon (ticks)")
	connect := flag.String("connect", "", "address of a mostserver to drive instead of an in-process database")
	proto := flag.Int("proto", 0, "with -connect: highest wire protocol version to offer (2 = full NOTIFYs only, 0 = newest)")
	flag.Parse()

	if *connect != "" {
		runRemote(*connect, *horizon, *proto)
		return
	}

	db, err := mostdb.Fleet(mostdb.FleetSpec{
		N:        *n,
		Region:   mostdb.Rect(0, 0, 1000, 1000),
		MaxSpeed: 3,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := mostdb.AddMotels(db, mostdb.MotelsSpec{N: 30, Region: mostdb.Rect(0, 0, 1000, 1000), Seed: *seed}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sh := &shell{
		db:     db,
		engine: mostdb.NewEngine(db),
		opts: mostdb.QueryOptions{
			Horizon: mostdb.Tick(*horizon),
			Regions: map[string]mostdb.Polygon{
				"P":        mostdb.RectPolygon(100, 100, 300, 300),
				"Q":        mostdb.RectPolygon(600, 600, 900, 900),
				"downtown": mostdb.RectPolygon(400, 400, 600, 600),
			},
		},
		cont:    map[int]*mostdb.ContinuousQuery{},
		contSrc: map[int]string{},
	}
	fmt.Printf("mostql: %d vehicles + 30 motels; clock at %d; horizon %d\n", *n, db.Now(), *horizon)
	fmt.Println(`type ".help" for commands`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("t=%d> ", sh.db.Now())
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if sh.command(line) {
				return
			}
			continue
		}
		sh.query(line)
	}
}

func (sh *shell) query(src string) {
	q, err := mostdb.ParseQuery(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rel, err := sh.engine.InstantaneousRelation(q, sh.opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	now := sh.db.Now()
	rows := rel.At(now)
	fmt.Printf("%d instantiation(s) satisfied at t=%d:\n", len(rows), now)
	for i, vals := range rows {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(rows)-20)
			break
		}
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		fmt.Println(" ", strings.Join(parts, ", "))
	}
	answers := rel.Answers()
	if len(answers) > 0 && len(answers) <= 10 {
		fmt.Println("full answer intervals:")
		for _, a := range answers {
			parts := make([]string, len(a.Vals))
			for j, v := range a.Vals {
				parts[j] = v.String()
			}
			fmt.Printf("  (%s) during %s\n", strings.Join(parts, ", "), a.Interval)
		}
	}
}

// command handles a dot-command; it returns true to exit.
func (sh *shell) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Println(`commands:
  RETRIEVE ... WHERE ...    instantaneous FTL query (classes: Vehicles, Motels)
  .continuous <query>       register a continuous query; answers update with the clock
  .tick [n]                 advance the clock by n (default 1)
  .turn <id> <vx> <vy>      change an object's motion vector
  .objects [class]          list objects and current positions
  .regions                  list named regions (P, Q, downtown)
  .save <file>              snapshot the database to JSON
  .load <file>              replace the database from a snapshot
  .quit                     exit`)
	case ".tick":
		n := int64(1)
		if len(fields) > 1 {
			if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				n = v
			}
		}
		sh.db.Advance(mostdb.Tick(n))
		for id, cq := range sh.cont {
			rows, err := cq.Current(sh.db.Now())
			if err != nil {
				continue
			}
			fmt.Printf("[cq%d] %d row(s) at t=%d\n", id, len(rows), sh.db.Now())
		}
	case ".turn":
		if len(fields) != 4 {
			fmt.Println("usage: .turn <id> <vx> <vy>")
			return false
		}
		vx, err1 := strconv.ParseFloat(fields[2], 64)
		vy, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil {
			fmt.Println("bad vector")
			return false
		}
		if err := sh.db.SetMotion(mostdb.ObjectID(fields[1]), mostdb.Vector{X: vx, Y: vy}); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("%s now heads (%g, %g)\n", fields[1], vx, vy)
	case ".continuous":
		src := strings.TrimSpace(strings.TrimPrefix(line, ".continuous"))
		q, err := mostdb.ParseQuery(src)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		cq, err := sh.engine.Continuous(q, sh.opts)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.nextCQ++
		sh.cont[sh.nextCQ] = cq
		sh.contSrc[sh.nextCQ] = src
		fmt.Printf("registered cq%d; it reports on every .tick\n", sh.nextCQ)
	case ".save":
		if len(fields) != 2 {
			fmt.Println("usage: .save <file>")
			return false
		}
		data, err := sh.db.SnapshotJSON()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := os.WriteFile(fields[1], data, 0o644); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("saved %d objects to %s\n", sh.db.Count(), fields[1])
	case ".load":
		if len(fields) != 2 {
			fmt.Println("usage: .load <file>")
			return false
		}
		data, err := os.ReadFile(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		db, err := mostdb.LoadSnapshotJSON(data)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.db = db
		sh.engine = mostdb.NewEngine(db)
		sh.cont = map[int]*mostdb.ContinuousQuery{}
		sh.contSrc = map[int]string{}
		fmt.Printf("loaded %d objects; clock at %d; continuous queries cleared\n", db.Count(), db.Now())
	case ".objects":
		class := ""
		if len(fields) > 1 {
			class = fields[1]
		}
		objs := sh.db.Objects(class)
		for i, o := range objs {
			if i >= 15 {
				fmt.Printf("  ... and %d more\n", len(objs)-15)
				break
			}
			p, err := o.PositionAt(sh.db.Now())
			if err != nil {
				fmt.Printf("  %s (%s)\n", o.ID(), o.Class().Name())
				continue
			}
			fmt.Printf("  %-12s (%s) at (%.1f, %.1f)\n", o.ID(), o.Class().Name(), p.X, p.Y)
		}
	case ".regions":
		for name := range sh.opts.Regions {
			b := sh.opts.Regions[name].Bounds()
			fmt.Printf("  %-9s [%g,%g] x [%g,%g]\n", name, b.Min.X, b.Max.X, b.Min.Y, b.Max.Y)
		}
	default:
		fmt.Println("unknown command; try .help")
	}
	return false
}
