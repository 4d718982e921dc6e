package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// report is the JSON document a full run writes with -out and -compare
// reads back.
type report struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Probes    map[string]float64         `json:"probes,omitempty"`
}

type workloadReport struct {
	Iterations int                  `json:"iterations"`
	HostFactor float64              `json:"host_factor"`
	Ops        int                  `json:"ops"`
	FailedOps  int                  `json:"failed_ops"`
	Errors     []string             `json:"errors,omitempty"`
	Degraded   string               `json:"degraded,omitempty"`
	EndToEnd   map[string]metricOut `json:"end_to_end"`
	PerLayer   map[string]float64   `json:"per_layer,omitempty"`
}

// verdict is the compare rule's answer for one (metric, workload) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// noise estimates how far a host-clock figure moves between runs of one
// commit: the quartile distance of its per-iteration samples as a share of
// the figure, shrunk by √n because the figure is a median or mean of n of
// them. Sim-clock figures repeat exactly and have none.
func noise(d metricDef, m metricOut) float64 {
	if d.clock != "host" || m.N < 2 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value) / math.Sqrt(float64(m.N))
}

// judge applies one metric's bound: b is worse when it moved in the bad
// direction by more than bound × |a|; a difference inside the bound is only
// trusted when either side's noise is inside it too.
func judge(d metricDef, a, b metricOut) verdict {
	delta := b.Value - a.Value
	if d.higher {
		delta = -delta
	}
	if delta > d.bound*math.Abs(a.Value) {
		return verdictWorse
	}
	if math.Max(noise(d, a), noise(d, b)) > d.bound {
		return verdictUnresolved
	}
	return verdictOK
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints one row per (metric, workload) present on both sides and
// reports whether any row was worse.
func compare(w io.Writer, a, b *report) (anyWorse bool) {
	fmt.Fprintf(w, "baseline  %s on %q (nproc %d, GOMAXPROCS %d, %s)\n", a.Host.Commit, a.Host.CPUModel, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.GoVersion)
	fmt.Fprintf(w, "candidate %s on %q (nproc %d, GOMAXPROCS %d, %s)\n", b.Host.Commit, b.Host.CPUModel, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.GoVersion)
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, d := range reported {
			ma, inA := wa.EndToEnd[d.name]
			mb, inB := wb.EndToEnd[d.name]
			if !inA || !inB {
				continue
			}
			v := judge(d, ma, mb)
			anyWorse = anyWorse || v == verdictWorse
			note := ""
			if v == verdictOK && d.clock == "sim" && ma.Value != mb.Value && a.Seed == b.Seed {
				note = " (sim-clock value changed)"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s%s\n", name, d.name, ma.Value, mb.Value,
				100*ratio(mb.Value-ma.Value, math.Abs(ma.Value)), 100*d.bound, v, note)
		}
	}
	return anyWorse
}
