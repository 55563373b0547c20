package most

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
)

// Microbenchmarks of the durable path at city scale, so a regression in
// checkpoint, recovery or WAL append cost can be traced without running
// the city benchmark:
//
//	go test ./internal/most -run '^$' -bench 'Checkpoint|Recover|WALAppendUpdate' -benchmem
//
// Each reports the bytes it put on disk (or through the log) per op.

// benchSizes are the database sizes every durable-path benchmark runs at.
var benchSizes = []int{10_000, 100_000}

// benchDatabase builds a city-like database of n cars: one string static
// attribute and linear motion in X and Y, at tick 10.
func benchDatabase(tb testing.TB, n int) *Database {
	tb.Helper()
	db := NewDatabase()
	c := MustClass("Cars", true, AttrDef{Name: "HOME", Kind: Static})
	if err := db.DefineClass(c); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o, err := NewObject(ObjectID(fmt.Sprintf("car-%06d", i)), c)
		if err != nil {
			tb.Fatal(err)
		}
		if o, err = o.WithStatic("HOME", Str(fmt.Sprintf("district-%02d", i%40))); err != nil {
			tb.Fatal(err)
		}
		p := geom.Point{X: float64(i % 1000), Y: float64(i / 1000)}
		v := geom.Vector{X: float64(i%7) - 3, Y: float64(i%5) - 2}
		if o, err = o.WithPosition(motion.MovingFrom(p, v, 0)); err != nil {
			tb.Fatal(err)
		}
		if err := db.Insert(o); err != nil {
			tb.Fatal(err)
		}
	}
	db.Advance(10)
	return db
}

// benchDurable attaches a file WAL in dir to a fresh n-object database.
func benchDurable(b *testing.B, n int, dir string) (*Database, *WAL) {
	db := benchDatabase(b, n)
	w, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AttachWAL(w); err != nil {
		b.Fatal(err)
	}
	return db, w
}

func fileSize(b *testing.B, path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return float64(st.Size())
}

// BenchmarkCheckpoint times one checkpoint (encode, write, fsync, rename,
// WAL truncation) of the whole database.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			db, w := benchDurable(b, n, dir)
			defer w.Close()
			path := filepath.Join(dir, "checkpoint")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Checkpoint(path); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(fileSize(b, path), "ckpt_B/op")
		})
	}
}

// BenchmarkRecover times recovery from a checkpoint of n objects plus a
// WAL tail of n/10 motion updates.
func BenchmarkRecover(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			db, w := benchDurable(b, n, dir)
			path := filepath.Join(dir, "checkpoint")
			if err := db.Checkpoint(path); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n/10; i++ {
				if err := db.SetMotion(ObjectID(fmt.Sprintf("car-%06d", i*7%n)), geom.Vector{X: 1, Y: float64(i % 3)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			walPath := filepath.Join(dir, "wal.log")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, rep, err := RecoverFiles(path, walPath)
				if err != nil || rep.Truncated || got.Count() != n {
					b.Fatalf("recover: err=%v rep=%+v", err, rep)
				}
			}
			b.StopTimer()
			b.ReportMetric(fileSize(b, path)+fileSize(b, walPath), "disk_B/op")
		})
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWALAppendUpdate times the WAL append of one provenance-stamped
// motion update with its post-image, cycling through the objects.
func BenchmarkWALAppendUpdate(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			db := benchDatabase(b, n)
			objs := db.Objects("")
			cw := &countingWriter{}
			w := NewWAL(cw)
			prov := &Prov{Client: "client-1", Req: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := objs[i%len(objs)]
				prov.Op = i % 64
				w.append(&walRecord{kind: recUpdate, upd: Update{Tick: 10, Kind: UpdateDynamic, Object: o.ID(), Attr: XPosition, Before: o, After: o, Prov: prov}, prov: prov})
			}
			b.StopTimer()
			if err := w.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cw.n)/float64(b.N), "wal_B/op")
		})
	}
}
