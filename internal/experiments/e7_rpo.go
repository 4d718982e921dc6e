package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// E7RPO measures the data-loss exposure of asynchronous copy (§I: "owing to
// network delays, data loss at the backup site is inevitable"): the
// workload runs continuously while the group's RPO and backlog are probed
// every 5 ms; the sweep varies link bandwidth and RTT. SDC rows are included
// as the zero baseline (its ack already includes the remote apply).
//
// Expected shape: ADC RPO grows as bandwidth shrinks (the link saturates)
// and tracks RTT when bandwidth is ample; SDC is always 0.
func E7RPO(seed int64, rtts []time.Duration, bandwidths []float64, duration time.Duration) (*Table, error) {
	if len(bandwidths) == 0 {
		return nil, errors.New("E7: empty bandwidth sweep")
	}
	t := NewTable("E7: RPO (data-loss window) vs link capacity (paper §I/§III-A1)",
		"mode", "rtt", "bandwidth B/s", "mean RPO", "max RPO", "max backlog")
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
			if err := runProc(r.env, "orders", 0, func(p *sim.Proc) error { return r.shop.RunUntil(p, deadline) }); err != nil {
				return nil, fmt.Errorf("E7 rtt=%v bw=%g: %w", rtt, bw, err)
			}
			r.stop()
			rpo := reg.Series("rpo", rigTenant).Window(start, deadline)
			t.AddRow(ModeADC, rtt, fmt.Sprintf("%.0e", bw), time.Duration(rpo.Mean()), time.Duration(rpo.Max()),
				int(reg.Series("backlog.records", rigTenant).Window(start, deadline).Max()))
		}
	}
	// SDC baseline: RPO is structurally zero (remote apply precedes the
	// ack), reported for the table's completeness.
	for _, rtt := range rtts {
		t.AddRow(ModeSDC, rtt, fmt.Sprintf("%.0e", bandwidths[len(bandwidths)-1]), time.Duration(0), time.Duration(0), 0)
	}
	t.AddNote("shape: ADC RPO grows as the link saturates; SDC RPO is always 0 (but E5 shows its cost)")
	return t, nil
}
