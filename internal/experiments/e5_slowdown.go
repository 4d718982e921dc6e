package experiments

import (
	"fmt"
	"time"

	"repro/internal/netlink"
)

// E5Slowdown measures the paper's headline claim (§I): ADC eliminates
// system slowdown while SDC's commit path pays the inter-site RTT. For each
// RTT it runs the e-commerce workload under no replication, ADC with a
// consistency group, and SDC, and reports order latency and throughput.
//
// Expected shape: ADC ≈ none at every RTT; SDC degrades linearly with RTT.
func E5Slowdown(seed int64, rtts []time.Duration, orders int) (*Table, error) {
	t := NewTable("E5: system slowdown — order latency by replication mode (paper §I claim)",
		"rtt", "mode", "mean", "p99", "orders/s")
	for _, rtt := range rtts {
		for _, mode := range []Mode{ModeNone, ModeADC, ModeSDC} {
			r, err := newRig(rigParams{
				seed: seed,
				mode: mode,
				link: netlink.Config{Propagation: rtt / 2, BandwidthBps: 1e9},
			})
			if err != nil {
				return nil, fmt.Errorf("E5 %s rtt=%v: %w", mode, rtt, err)
			}
			span, err := r.runOrders(orders)
			if err != nil {
				return nil, fmt.Errorf("E5 %s rtt=%v: %w", mode, rtt, err)
			}
			t.AddRow(rtt, mode, r.shop.Latency.Mean(), r.shop.Latency.P99(), float64(orders)/span.Seconds())
			r.stop()
		}
	}
	t.AddNote("shape: ADC+CG tracks the no-replication baseline; SDC grows with RTT")
	return t, nil
}
