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

// TestGateThroughput drives the baseline gate on temporary baseline files,
// without running a benchmark: the 0.75 floor is inclusive, the modes
// must match, an unreadable or empty baseline fails, and a cluster run
// must also beat its own single-node phase.
func TestGateThroughput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	quick := write("quick.json", `{"quick": true, "updates_per_sec": 1000}`)
	full := write("full.json", `{"quick": false, "updates_per_sec": 1000}`)
	empty := write("empty.json", `{"quick": true}`)
	garbled := write("garbled.json", `{"quick":`)
	fast, slow := 1.2, 0.9
	cases := []struct {
		name    string
		base    string
		ups     float64
		speedup *float64
		wantErr string // "" = pass
	}{
		{"pass", quick, 900, nil, ""},
		{"at floor", quick, 750, nil, ""},
		{"below floor", quick, 749, nil, "regressed to 0.75x"},
		{"mode mismatch", full, 900, nil, "not comparable"},
		{"unreadable", filepath.Join(dir, "missing.json"), 900, nil, "read baseline"},
		{"unparsable", garbled, 900, nil, "parse baseline"},
		{"no throughput", empty, 900, nil, "no updates_per_sec"},
		{"cluster pass", quick, 900, &fast, ""},
		{"cluster slower than one node", quick, 900, &slow, "no longer pays"},
		{"cluster below floor", quick, 700, &fast, "regressed"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := gateThroughput(tc.base, true, tc.ups, tc.speedup, &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}
