package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ObservabilityResult summarizes one E16 telemetry-plane run.
type ObservabilityResult struct {
	Tenants      int
	Joined       int
	Resharded    int
	FailedOver   int
	OrdersPlaced int64
	Verified     int
	SamplePeriod time.Duration

	// Telemetry-plane inventory: what the run exported.
	SeriesCount int // probed time series (RPO, backlogs, queue depths, ...)
	SpanCount   int // trace events (spans + instants + track metadata)
	ExportBytes int // size of the Chrome trace-event JSON export

	// TopRPO ranks the worst-RPO tenants over the whole run — the query the
	// autopilot's placement policy will consume.
	TopRPO []telemetry.SeriesRank

	// Registry is the run's live instrument registry; callers export it via
	// Registry.ExportJSON (the -telemetry flag of cmd/experiments).
	Registry *telemetry.Registry

	SimTime time.Duration
	Workers int
	Kernel  sim.Stats
}

// E16Observability runs a churning fleet — mid-run join, live reshard, and
// site failovers — with the sim-time telemetry plane enabled: per-tenant RPO
// probes sampled on the virtual clock, span tracing over epoch drains,
// reshard migration windows, reconcile passes and tenant lifecycle, and
// fabric/controller instruments, all exported as deterministic Chrome
// trace-event JSON.
func E16Observability(seed int64, tenants, ordersPerTenant, workers int) (ObservabilityResult, error) {
	const period = 250 * time.Millisecond
	if tenants < 2 {
		tenants = 2
	}
	f := fleet.New(fleet.Config{
		Tenants:         tenants,
		OrdersPerTenant: ordersPerTenant,
		Workers:         workers,
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
		return ObservabilityResult{}, fmt.Errorf("E16: %w", err)
	}
	tot := f.Totals()
	reg := f.Sys.Telemetry
	end := f.Sys.Env.Now()
	ex := reg.Snapshot()
	exJSON, err := reg.ExportJSON()
	if err != nil {
		return ObservabilityResult{}, fmt.Errorf("E16: export: %w", err)
	}
	res := ObservabilityResult{
		Tenants:      len(f.Tenants),
		FailedOver:   tot.FailedOver,
		OrdersPlaced: tot.OrdersPlaced,
		Verified:     tot.Verified,
		SamplePeriod: period,
		SeriesCount:  len(ex.Series),
		SpanCount:    len(ex.TraceEvents),
		ExportBytes:  len(exJSON),
		TopRPO:       reg.TopK("rpo", 5, 0, end),
		Registry:     reg,
		SimTime:      end,
		Workers:      workers,
		Kernel:       f.Sys.Env.Stats(),
	}
	for _, t := range f.Tenants {
		if t.Join {
			res.Joined++
		}
		if t.Resharded {
			res.Resharded++
		}
	}

	// Eight tenants reconcile at once inside each controller: their spans
	// must still lay out as rows a trace viewer can stack.
	if err := reg.SpanOverlap(); err != nil {
		return res, fmt.Errorf("E16: %w", err)
	}
	if res.FailedOver == 0 || res.Resharded == 0 || res.Joined == 0 {
		return res, fmt.Errorf("E16: churn incomplete: %d failovers, %d reshards, %d joins",
			res.FailedOver, res.Resharded, res.Joined)
	}
	return res, nil
}

// E16Table renders the E16 result, including the worst-RPO tenant ranking.
func E16Table(r ObservabilityResult) *Table {
	t := NewTable("E16: sim-time telemetry plane — probes, spans, and deterministic export under churn",
		"metric", "value")
	t.AddRow("tenant namespaces (incl. joins)", r.Tenants)
	t.AddRow("tenants joined mid-run", r.Joined)
	t.AddRow("tenants resharded live", r.Resharded)
	t.AddRow("tenants failed over mid-run", r.FailedOver)
	t.AddRow("orders placed (fleet)", r.OrdersPlaced)
	t.AddRow("tenants verified consistent", r.Verified)
	t.AddRow("probe sample period", r.SamplePeriod)
	t.AddRow("probed time series exported", r.SeriesCount)
	t.AddRow("trace events exported", r.SpanCount)
	t.AddRow("export size (bytes)", r.ExportBytes)
	for i, rank := range r.TopRPO {
		t.AddRow(fmt.Sprintf("worst RPO #%d: %s", i+1, rank.Key),
			fmt.Sprintf("%v at t=%v", time.Duration(rank.Max), rank.At))
	}
	t.AddRow("fleet virtual time", r.SimTime)
	t.AddRow("scheduler workers", r.Workers)
	t.AddNote("shape: every tenant verifies consistent under churn; the RPO ranking is a window read of the probed series; export is byte-deterministic")
	return t
}
