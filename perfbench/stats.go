package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the same rule as numpy's default), or 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeBytes is the process's write_bytes from /proc/self/io: bytes this
// process caused to be sent to the storage layer, counted when pages are
// dirtied, so a log the program later truncates still shows what it wrote.
func writeBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/io has no write_bytes")
}

// phaseMeter captures the process counters a measured phase is charged
// with: wall time, CPU time, bytes written to storage, heap allocation and
// GC cycles.
type phaseMeter struct {
	wall  time.Time
	cpu   time.Duration
	wb    int64
	alloc uint64
	gcs   uint32
}

func startPhase() (phaseMeter, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	wb, err := writeBytes()
	if err != nil {
		return phaseMeter{}, err
	}
	return phaseMeter{wall: time.Now(), cpu: cpuTime(), wb: wb, alloc: m.TotalAlloc, gcs: m.NumGC}, nil
}

// phaseCost is what a phase consumed.
type phaseCost struct {
	Wall       time.Duration
	CPU        time.Duration
	WriteBytes int64
	AllocBytes uint64
	GCs        uint32
}

func (p phaseMeter) stop() (phaseCost, error) {
	wall := time.Since(p.wall)
	cpu := cpuTime()
	wb, err := writeBytes()
	if err != nil {
		return phaseCost{}, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phaseCost{Wall: wall, CPU: cpu - p.cpu, WriteBytes: wb - p.wb,
		AllocBytes: m.TotalAlloc - p.alloc, GCs: m.NumGC - p.gcs}, nil
}

// liveHeapMB is HeapAlloc after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
