package experiments

import (
	"fmt"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// RPOResult is one row of experiment E7.
type RPOResult struct {
	Mode       Mode
	RTT        time.Duration
	Bandwidth  float64
	MeanRPO    time.Duration
	MaxRPO     time.Duration
	MaxBacklog int
}

// E7RPO measures the data-loss exposure of asynchronous copy (§I: "owing to
// network delays, data loss at the backup site is inevitable"): the
// workload runs continuously while the group's RPO and backlog are probed
// every 5 ms; the sweep varies link bandwidth and RTT. SDC rows are included
// as the zero baseline (its ack already includes the remote apply).
//
// Expected shape: ADC RPO grows as bandwidth shrinks (the link saturates)
// and tracks RTT when bandwidth is ample; SDC is always 0.
func E7RPO(seed int64, rtts []time.Duration, bandwidths []float64, duration time.Duration) ([]RPOResult, error) {
	var out []RPOResult
	for _, rtt := range rtts {
		for _, bw := range bandwidths {
			r, err := newRig(rigParams{
				seed: seed,
				mode: ModeADC,
				link: netlink.Config{Propagation: rtt / 2, BandwidthBps: bw},
			})
			if err != nil {
				return nil, fmt.Errorf("E7 rtt=%v bw=%g: %w", rtt, bw, err)
			}
			reg := r.probe(5 * time.Millisecond)
			start := r.env.Now()
			deadline := start + duration
			r.env.Process("orders", func(p *sim.Proc) { r.shop.RunUntil(p, deadline) })
			r.env.Run(0)
			r.stop()
			rpo := reg.Series("rpo", rigTenant).Window(start, deadline)
			out = append(out, RPOResult{
				Mode:       ModeADC,
				RTT:        rtt,
				Bandwidth:  bw,
				MeanRPO:    time.Duration(rpo.Mean()),
				MaxRPO:     time.Duration(rpo.Max()),
				MaxBacklog: int(reg.Series("backlog.records", rigTenant).Window(start, deadline).Max()),
			})
		}
	}
	// SDC baseline: RPO is structurally zero (remote apply precedes the
	// ack), reported for the table's completeness.
	for _, rtt := range rtts {
		out = append(out, RPOResult{Mode: ModeSDC, RTT: rtt, Bandwidth: bandwidths[len(bandwidths)-1]})
	}
	return out, nil
}

// E7Table renders E7 results.
func E7Table(results []RPOResult) *Table {
	t := NewTable("E7: RPO (data-loss window) vs link capacity (paper §I/§III-A1)",
		"mode", "rtt", "bandwidth B/s", "mean RPO", "max RPO", "max backlog")
	for _, r := range results {
		t.AddRow(string(r.Mode), r.RTT, fmt.Sprintf("%.0e", r.Bandwidth), r.MeanRPO, r.MaxRPO, r.MaxBacklog)
	}
	t.AddNote("shape: ADC RPO grows as the link saturates; SDC RPO is always 0 (but E5 shows its cost)")
	return t
}
