package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModeSmoke drives every mostbench mode end to end through run() with
// -quick and a temp -out directory: a panicking sweep, a broken flag, or a
// mode that stops writing its report fails tier-1 here instead of being
// discovered at bench time.  Gated behind -short because together the
// quick sweeps take tens of seconds.
func TestModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mode smoke runs every quick bench; skipped in -short")
	}
	cases := []struct {
		name  string
		args  []string
		wants []string // files that must exist in the out dir afterwards
	}{
		{"default", []string{"-quick", "-only", "E1"}, nil},
		{"delta", []string{"-delta", "-quick"}, []string{"BENCH_delta.json"}},
		{"faults", []string{"-faults", "-quick"}, []string{"BENCH_faults.json"}},
		{"chaos", []string{"-chaos", "-quick"}, []string{"BENCH_faults.json"}},
		{"obs", []string{"-obs", "-quick"}, []string{"BENCH_obs.json"}},
		{"server", []string{"-server", "-quick"}, []string{"BENCH_server.json"}},
		{"city", []string{"-city", "-quick"}, []string{"BENCH_city.json"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-out", dir), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("run(%v) exited %d\nstderr: %s", tc.args, code, stderr.String())
			}
			for _, name := range tc.wants {
				path := filepath.Join(dir, name)
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("run(%v) did not write %s: %v\nstdout: %s", tc.args, name, err, stdout.String())
				}
				// Every report announces where it landed.
				if !strings.Contains(stdout.String(), name) {
					t.Fatalf("run(%v) wrote %s without printing its path\nstdout: %s", tc.args, name, stdout.String())
				}
			}
			if len(tc.wants) == 0 && !strings.Contains(stdout.String(), "E1") {
				t.Fatalf("run(%v) printed no experiment table\nstdout: %s", tc.args, stdout.String())
			}
		})
	}
}

// TestRunErrors checks the failure paths keep failing: an unknown flag and
// a filter matching no experiment must exit non-zero.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown flag exited 0")
	}
	stderr.Reset()
	if code := run([]string{"-only", "E99"}, &stdout, &stderr); code == 0 {
		t.Fatal("-only E99 exited 0")
	}
	if !strings.Contains(stderr.String(), "no experiment matches") {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
}
