package experiments

// The live chaos benchmark behind `mostbench -chaos`: runs the scripted
// end-to-end fault scenarios (internal/chaos) against a real durable
// server over TCP and distills the robustness numbers an operator cares
// about — how long a crash-restart takes to recover, and how long a
// client fleet takes to land its first commit after failover.  The
// results ride in BENCH_faults.json under the "chaos" key, next to the
// simulated fault sweep (E13).

import (
	"fmt"
	"os"
	"time"

	"github.com/mostdb/most/internal/chaos"
)

// ChaosStats is one scenario's aggregate across all seeds.
type ChaosStats struct {
	Scenario string  `json:"scenario"`
	Seeds    []int64 `json:"seeds"`
	Restarts int     `json:"restarts"`

	// Recovery: NewDurable's WAL/checkpoint replay time at each restart.
	RecoveryP50Ns int64 `json:"recovery_p50_ns"`
	RecoveryP99Ns int64 `json:"recovery_p99_ns"`

	// Failover: from the post-restart serve to a client's first committed
	// probe, including the client's reconnect backoff.
	FailoverP50Ns int64 `json:"failover_p50_ns"`
	FailoverP99Ns int64 `json:"failover_p99_ns"`

	Reconnects int64 `json:"client_reconnects"`
	ResumeRows int64 `json:"resume_gap_rows"`
}

// ChaosReport is the "chaos" payload in BENCH_faults.json.
type ChaosReport struct {
	Results []ChaosStats `json:"results"`
}

// ChaosBench runs every scenario at each seed.  Each run gets a fresh
// scratch directory; a scenario failure is a hard error — the benchmark
// doubles as an end-to-end correctness gate.
func ChaosBench(quick bool) (*ChaosReport, error) {
	seeds := []int64{1, 7, 23}
	if quick {
		seeds = []int64{1}
	}
	scenarios := []struct {
		name string
		run  func(dir string, seed int64) (chaos.Result, error)
	}{
		{"kill-restart", chaos.KillRestart},
		{"partition", chaos.Partition},
		{"churn", chaos.Churn},
	}

	rep := &ChaosReport{}
	for _, sc := range scenarios {
		stats := ChaosStats{Scenario: sc.name, Seeds: seeds}
		var recoveries, failovers []time.Duration
		for _, seed := range seeds {
			dir, err := os.MkdirTemp("", "mostbench-chaos-*")
			if err != nil {
				return nil, err
			}
			res, err := sc.run(dir, seed)
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("%s seed=%d: %w", sc.name, seed, err)
			}
			recoveries = append(recoveries, res.Recoveries...)
			failovers = append(failovers, res.Failovers...)
			stats.Reconnects += res.Reconnects
			stats.ResumeRows += res.ResumeRows
		}
		stats.Restarts = len(recoveries)
		stats.RecoveryP50Ns = pctDur(recoveries, 0.50).Nanoseconds()
		stats.RecoveryP99Ns = pctDur(recoveries, 0.99).Nanoseconds()
		stats.FailoverP50Ns = pctDur(failovers, 0.50).Nanoseconds()
		stats.FailoverP99Ns = pctDur(failovers, 0.99).Nanoseconds()
		rep.Results = append(rep.Results, stats)
	}
	return rep, nil
}

// Table renders the chaos report in the experiment-table format.
func (r *ChaosReport) Table() *Table {
	t := &Table{
		ID:    "CHAOS",
		Title: "live fault injection: crash-restart recovery and client failover",
		Claim: "a durable server restarted from its WAL converges clients to the exact committed state; recovery and failover complete in milliseconds at this scale",
		Columns: []string{
			"scenario", "seeds", "restarts",
			"recover-p50", "recover-p99", "failover-p50", "failover-p99",
			"reconnects", "resume-rows",
		},
	}
	for _, s := range r.Results {
		t.AddRow(
			s.Scenario,
			fmt.Sprintf("%d", len(s.Seeds)),
			fmt.Sprintf("%d", s.Restarts),
			time.Duration(s.RecoveryP50Ns).Round(time.Microsecond).String(),
			time.Duration(s.RecoveryP99Ns).Round(time.Microsecond).String(),
			time.Duration(s.FailoverP50Ns).Round(time.Microsecond).String(),
			time.Duration(s.FailoverP99Ns).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", s.Reconnects),
			fmt.Sprintf("%d", s.ResumeRows),
		)
	}
	t.Notes = append(t.Notes,
		"recovery = NewDurable replay time at restart; failover = restart-to-first-committed-probe, including client backoff",
		"every run also asserts byte-identical state against a differential oracle and gap-free notification streams",
	)
	return t
}
