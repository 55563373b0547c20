package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary.  Req is the request id
// (the batch index in the op stream) shared by every span of one request;
// Parent is the index of the enclosing span in the tracer, -1 for a root.
type span struct {
	Name   string    `json:"name"`
	Req    int       `json:"req"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording a span costs two clock reads and an append.  A nil
// tracer records nothing, which is how untraced phases run the same code.
type tracer struct {
	spans []span
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Now()
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of its interval its children cover.  Children of one
// span never overlap (the load is one closed loop), so the covered part
// is the sum of their durations.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End.Sub(s.Start)-child[i])
	}
	return out
}

// durations returns the total durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End.Sub(s.Start)))
		}
	}
	return out
}

// write stores the spans as JSON lines and returns a per-name summary
// (count, median total and median self time) for the run's report.
func (t *tracer) write(path string) ([]string, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, fmt.Errorf("span log: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("span log: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("span log: %w", err)
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var lines []string
	for _, n := range names {
		var tot, sf []float64
		for _, d := range t.durations(n) {
			tot = append(tot, d)
		}
		for _, d := range self[n] {
			sf = append(sf, float64(d))
		}
		lines = append(lines, fmt.Sprintf("span %-24s n=%-6d total_p50=%9.1fus self_p50=%9.1fus",
			n, len(tot), median(tot)/1e3, median(sf)/1e3))
	}
	return lines, nil
}
