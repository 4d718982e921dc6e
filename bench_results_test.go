package repro

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedBenchReportCoversTheContract holds BENCH_results.json — the
// baseline `make bench-check` compares every fresh run against — to
// BENCHMARK.json: recorded at the seed bench-check runs, naming every
// workload, no failed operation anywhere. -compare skips a workload one
// side lacks, so a stale or partial re-record would otherwise gate nothing.
func TestCommittedBenchReportCoversTheContract(t *testing.T) {
	var contract struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	var report struct {
		Seed      int64 `json:"seed"`
		Workloads map[string]struct {
			Ops       int `json:"ops"`
			FailedOps int `json:"failed_ops"`
		} `json:"workloads"`
	}
	for path, into := range map[string]any{"BENCHMARK.json": &contract, "BENCH_results.json": &report} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if len(contract.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	if report.Seed != 1 {
		t.Errorf("BENCH_results.json was recorded at seed %d; `make bench-record` uses seed 1", report.Seed)
	}
	for _, w := range contract.Workloads {
		got, ok := report.Workloads[w.Name]
		switch {
		case !ok:
			t.Errorf("BENCH_results.json has no workload %q", w.Name)
		case got.Ops == 0 || got.FailedOps != 0:
			t.Errorf("BENCH_results.json %s: ops=%d failed_ops=%d, want work done and none failed", w.Name, got.Ops, got.FailedOps)
		}
	}
}
