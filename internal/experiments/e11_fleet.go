package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/storage"
)

// E11FleetScale provisions a fleet of tenant namespaces on one shared
// two-site system and runs the mixed workload: OLTP commits everywhere,
// snapshot analytics on one subset, a mid-run site failover (no catch-up —
// in-flight records are lost) on another. Every tenant's recovered or
// snapshotted image must be a consistent cut of its own cross-volume commit
// order — the paper's §I claim at production-fleet scale.
func E11FleetScale(seed int64, tenants, ordersPerTenant int) (*Table, error) {
	f := fleet.New(fleet.Config{
		Tenants:         tenants,
		OrdersPerTenant: ordersPerTenant,
		// Load-then-measure: provisioning skew stays out of the mixed
		// workload.
		StartBarrier: true,
		// Small volumes and blocks keep a 1,024-tenant fleet (thousands of
		// volumes across both sites) affordable without changing the
		// measured behavior: what E11 asserts — per-tenant consistent cuts
		// under mixed load — is block-size independent, and 512-byte blocks
		// cut the host memory traffic of block copies 8x.
		System: core.Config{Seed: seed, VolumeBlocks: 256,
			Storage: storage.Config{BlockSize: 512}},
	})
	if err := f.Run(); err != nil {
		return nil, fmt.Errorf("E11: %w", err)
	}
	tot := f.Totals()
	if tot.Verified != tot.Tenants {
		return nil, fmt.Errorf("E11: only %d/%d tenants verified consistent", tot.Verified, tot.Tenants)
	}
	if tot.Collapsed != 0 {
		return nil, fmt.Errorf("E11: %d tenants collapsed", tot.Collapsed)
	}
	var applied int64
	for _, g := range f.Sys.Main.Engines.Sorted() {
		applied += g.AppliedRecords()
	}
	kernel := f.Sys.Env.Stats()
	t := NewTable("E11: multi-tenant fleet scale-out — mixed workload with mid-run failovers",
		"metric", "value")
	t.AddRow("tenant namespaces", tot.Tenants)
	t.AddRow("orders placed (fleet)", tot.OrdersPlaced)
	t.AddRow("tenants failed over mid-run", tot.FailedOver)
	t.AddRow("tenants running snapshot analytics", tot.Analytics)
	t.AddRow("tenants verified consistent", tot.Verified)
	t.AddRow("tenants collapsed", tot.Collapsed)
	t.AddRow("commits lost in flight (failovers)", tot.LostTxns)
	t.AddRow("journal records applied at backup", applied)
	t.AddRow("mean tag -> replication ready", tot.MeanTimeToReady)
	t.AddRow("max tag -> replication ready", tot.MaxTimeToReady)
	t.AddRow("mean failover recovery time", tot.MeanRecovery)
	t.AddRow("fleet virtual time", f.Sys.Env.Now())
	t.AddRow("kernel handoffs (coroutine switches)", kernel.Handoffs)
	t.AddRow("kernel resumes in place (no switch)", kernel.InPlace)
	t.AddRow("kernel inline steps (no handoff)", kernel.InlineSteps)
	t.AddRow("kernel heap pushes", kernel.HeapPushes)
	t.AddRow("kernel same-instant FIFO bypasses", kernel.FifoBypasses)
	t.AddRow("kernel timer entries canceled eagerly", kernel.TimerCancels)
	t.AddNote("shape: every tenant's image is a consistent cut; lost in-flight commits are RPO, not collapse")
	return t, nil
}
