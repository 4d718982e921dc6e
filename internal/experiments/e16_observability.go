package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/netlink"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E16Observability runs a churning fleet — mid-run join, live reshard, and
// site failovers — with the sim-time telemetry plane enabled: per-tenant RPO
// probes sampled on the virtual clock, span tracing over epoch drains,
// reshard migration windows, reconcile passes and tenant lifecycle, and
// fabric/controller instruments, all exported as deterministic Chrome
// trace-event JSON, which it returns beside its table.
func E16Observability(seed int64, tenants, ordersPerTenant int) (*Table, []byte, error) {
	const period = 250 * time.Millisecond
	if tenants < 2 {
		tenants = 2
	}
	f := fleet.New(fleet.Config{
		Tenants:         tenants,
		OrdersPerTenant: ordersPerTenant,
		StartBarrier:    true,
		// ThinkTime paces each tenant's orders so the OLTP phases span
		// seconds of virtual time — enough sample intervals for the RPO
		// timelines to show real shape instead of completing inside one.
		Workload: workload.Config{ThinkTime: 300 * time.Millisecond},
		Joins:    []fleet.JoinSpec{{After: 4 * time.Second}},
		Reshards: []fleet.ReshardSpec{{Tenant: tenants / 2, After: 2 * time.Second, Shards: 2}},
		System: core.Config{Seed: seed, VolumeBlocks: 256,
			Storage: storage.Config{BlockSize: 512},
			// A fat-RTT, thin pipe keeps records in flight for longer than a
			// sample period, so probed RPO is non-zero and the top-k ranking
			// is a real ordering rather than all ties at zero.
			Fabric:    fabric.Config{Links: []netlink.Config{{Propagation: 200 * time.Millisecond, BandwidthBps: 2e6}}},
			Telemetry: &telemetry.Config{SamplePeriod: period}},
	})
	if err := f.Run(); err != nil {
		return nil, nil, fmt.Errorf("E16: %w", err)
	}
	tot := f.Totals()
	reg := f.Sys.Telemetry
	end := f.Sys.Env.Now()
	ex := reg.Snapshot()
	exJSON, err := reg.ExportJSON()
	if err != nil {
		return nil, nil, fmt.Errorf("E16: export: %w", err)
	}
	var joined, resharded int
	for _, t := range f.Tenants {
		if t.Join {
			joined++
		}
		if t.Resharded {
			resharded++
		}
	}

	// Eight tenants reconcile at once inside each controller: their spans
	// must still lay out as rows a trace viewer can stack.
	if err := reg.SpanOverlap(); err != nil {
		return nil, nil, fmt.Errorf("E16: %w", err)
	}
	if tot.FailedOver == 0 || resharded == 0 || joined == 0 {
		return nil, nil, fmt.Errorf("E16: churn incomplete: %d failovers, %d reshards, %d joins",
			tot.FailedOver, resharded, joined)
	}
	// The worst-RPO ranking — the query the autopilot's placement policy
	// consumes — must read non-zero probed timelines.
	top := reg.TopK("rpo", 5, 0, end)
	if len(top) == 0 || top[0].Max <= 0 {
		return nil, nil, fmt.Errorf("E16: no probed RPO timeline ranked: %+v", top)
	}

	t := NewTable("E16: sim-time telemetry plane — probes, spans, and deterministic export under churn",
		"metric", "value")
	t.AddRow("tenant namespaces (incl. joins)", len(f.Tenants))
	t.AddRow("tenants joined mid-run", joined)
	t.AddRow("tenants resharded live", resharded)
	t.AddRow("tenants failed over mid-run", tot.FailedOver)
	t.AddRow("orders placed (fleet)", tot.OrdersPlaced)
	t.AddRow("tenants verified consistent", tot.Verified)
	t.AddRow("probe sample period", period)
	t.AddRow("probed time series exported", len(ex.Series))
	t.AddRow("trace events exported", len(ex.TraceEvents))
	t.AddRow("export size (bytes)", len(exJSON))
	for i, rank := range top {
		t.AddRow(fmt.Sprintf("worst RPO #%d: %s", i+1, rank.Key),
			fmt.Sprintf("%v at t=%v", time.Duration(rank.Max), rank.At))
	}
	t.AddRow("fleet virtual time", end)
	t.AddNote("shape: every tenant verifies consistent under churn; the RPO ranking is a window read of the probed series; export is byte-deterministic")
	return t, exJSON, nil
}
