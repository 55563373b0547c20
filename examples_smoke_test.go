package mostdb_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example binary, asserting a clean
// exit and non-empty output.  This keeps the examples honest: they are the
// library's documentation of record.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example execution in -short mode")
	}
	examples := []string{"quickstart", "airtraffic", "motels", "convoy"}
	tmp := t.TempDir()
	for _, name := range examples {
		name := name
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(tmp, name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			build.Env = os.Environ()
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
			run := exec.Command(bin)
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out)
			}
			if len(strings.TrimSpace(string(out))) == 0 {
				t.Fatal("example produced no output")
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("example output contains a panic:\n%s", out)
			}
		})
	}
}

// TestToolsRun smoke-tests the command-line tools.
func TestToolsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping tool execution in -short mode")
	}
	tmp := t.TempDir()

	// mostbench restricted to the cheapest experiment.
	bench := filepath.Join(tmp, "mostbench")
	if out, err := exec.Command("go", "build", "-o", bench, "./cmd/mostbench").CombinedOutput(); err != nil {
		t.Fatalf("build mostbench: %v\n%s", err, out)
	}
	out, err := exec.Command(bench, "-quick", "-only", "E1,E7").CombinedOutput()
	if err != nil {
		t.Fatalf("mostbench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "E1") || !strings.Contains(string(out), "E7") {
		t.Fatalf("mostbench output missing tables:\n%s", out)
	}
	if _, err := exec.Command(bench, "-only", "NOPE").CombinedOutput(); err == nil {
		t.Fatal("mostbench with unknown experiment should fail")
	}

	// mostbench -delta writes BENCH_delta.json in its working dir.
	delta := exec.Command(bench, "-delta", "-quick")
	delta.Dir = tmp
	out, err = delta.CombinedOutput()
	if err != nil {
		t.Fatalf("mostbench -delta: %v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(tmp, "BENCH_delta.json"))
	if err != nil {
		t.Fatalf("BENCH_delta.json not written: %v", err)
	}
	for _, want := range []string{"query", "full_ns_per_update", "delta_ns_per_update", "speedup"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("BENCH_delta.json missing %q:\n%s", want, data)
		}
	}

	// mostsim.
	sim := filepath.Join(tmp, "mostsim")
	if out, err := exec.Command("go", "build", "-o", sim, "./cmd/mostsim").CombinedOutput(); err != nil {
		t.Fatalf("build mostsim: %v\n%s", err, out)
	}
	out, err = exec.Command(sim, "-n", "40").CombinedOutput()
	if err != nil {
		t.Fatalf("mostsim: %v\n%s", err, out)
	}
	for _, want := range []string{"ship-objects", "broadcast-query", "immediate", "delayed"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("mostsim output missing %q:\n%s", want, out)
		}
	}

	// mostql driven by a script on stdin.
	ql := filepath.Join(tmp, "mostql")
	if out, err := exec.Command("go", "build", "-o", ql, "./cmd/mostql").CombinedOutput(); err != nil {
		t.Fatalf("build mostql: %v\n%s", err, out)
	}
	cmd := exec.Command(ql, "-n", "15")
	cmd.Stdin = strings.NewReader(`RETRIEVE o FROM Vehicles o WHERE EVENTUALLY WITHIN 100 INSIDE(o, downtown)
.continuous RETRIEVE o FROM Vehicles o WHERE INSIDE(o, P)
.tick 10
.objects Motels
.regions
.turn car-00000 1 0
.help
.quit`)
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mostql: %v\n%s", err, out)
	}
	for _, want := range []string{"instantiation(s) satisfied", "registered cq1", "[cq1]", "commands:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("mostql output missing %q:\n%s", want, out)
		}
	}
}

// TestREADMEQuickstart extracts the quickstart program from README.md,
// compiles it in a scratch module that depends on this repository, and
// runs it — so the README cannot drift from the public API.
func TestREADMEQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping quickstart execution in -short mode")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, close = "```go\n", "```"
	start := strings.Index(string(readme), open)
	if start < 0 {
		t.Fatal("README.md has no ```go block")
	}
	rest := string(readme)[start+len(open):]
	end := strings.Index(rest, close)
	if end < 0 {
		t.Fatal("README.md ```go block is unterminated")
	}
	program := rest[:end]
	if !strings.Contains(program, "package main") {
		t.Fatalf("quickstart block is not a main program:\n%s", program)
	}

	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "main.go"), []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}
	gomod := "module quickstart\n\ngo 1.22\n\nrequire github.com/mostdb/most v0.0.0\n\nreplace github.com/mostdb/most => " + repo + "\n"
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}

	tidy := exec.Command("go", "mod", "tidy")
	tidy.Dir = tmp
	if out, err := tidy.CombinedOutput(); err != nil {
		t.Fatalf("go mod tidy: %v\n%s", err, out)
	}
	run := exec.Command("go", "run", ".")
	run.Dir = tmp
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "satisfies during") {
		t.Fatalf("quickstart output unexpected:\n%s", out)
	}
}
