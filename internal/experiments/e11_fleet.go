package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/storage"
)

// FleetResult summarizes one E11 multi-tenant fleet run.
type FleetResult struct {
	Tenants         int
	FailedOver      int
	Analytics       int
	OrdersPlaced    int64
	Verified        int // tenants whose consistency verification passed
	Collapsed       int // tenants with a collapse witness (must be 0)
	LostTxns        int // commits cut off in flight by the failovers
	MeanTimeToReady time.Duration
	MaxTimeToReady  time.Duration
	MeanRecovery    time.Duration
	SimTime         time.Duration // virtual time the whole fleet took
	BackupApplied   int64         // journal records applied across all groups
	Workers         int           // scheduler worker pool (0/1 = sequential)
	Kernel          sim.Stats     // scheduler counters for the whole run
}

// E11FleetScale provisions a fleet of tenant namespaces on one shared
// two-site system and runs the mixed workload: OLTP commits everywhere,
// snapshot analytics on one subset, a mid-run site failover (no catch-up —
// in-flight records are lost) on another. Every tenant's recovered or
// snapshotted image must be a consistent cut of its own cross-volume commit
// order — the paper's §I claim at production-fleet scale.
func E11FleetScale(seed int64, tenants, ordersPerTenant int) (FleetResult, error) {
	// Independent tenant subgraphs run on one worker per spare core; on a
	// single-core host this degrades to the sequential scheduler, and either
	// way the simulated outcome is identical (golden-trace verified).
	return E11FleetScaleWorkers(seed, tenants, ordersPerTenant, runtime.GOMAXPROCS(0))
}

// E11FleetScaleWorkers is E11FleetScale with an explicit scheduler worker
// count (0 or 1 forces the sequential scheduler).
func E11FleetScaleWorkers(seed int64, tenants, ordersPerTenant, workers int) (FleetResult, error) {
	f := fleet.New(fleet.Config{
		Tenants:         tenants,
		OrdersPerTenant: ordersPerTenant,
		Workers:         workers,
		// Load-then-measure: provisioning skew stays out of the mixed
		// workload, and the shared start instant lets the parallel scheduler
		// batch independent tenant steps into same-instant rounds.
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
		return FleetResult{}, fmt.Errorf("E11: %w", err)
	}
	tot := f.Totals()
	res := FleetResult{
		Tenants:         tot.Tenants,
		FailedOver:      tot.FailedOver,
		Analytics:       tot.Analytics,
		OrdersPlaced:    tot.OrdersPlaced,
		Verified:        tot.Verified,
		Collapsed:       tot.Collapsed,
		LostTxns:        tot.LostTxns,
		MeanTimeToReady: tot.MeanTimeToReady,
		MaxTimeToReady:  tot.MaxTimeToReady,
		MeanRecovery:    tot.MeanRecovery,
		SimTime:         f.Sys.Env.Now(),
		Workers:         workers,
		Kernel:          f.Sys.Env.Stats(),
	}
	for _, g := range f.Sys.Replication.AllGroups() {
		res.BackupApplied += g.AppliedRecords()
	}
	if res.Verified != res.Tenants {
		return res, fmt.Errorf("E11: only %d/%d tenants verified consistent", res.Verified, res.Tenants)
	}
	if res.Collapsed != 0 {
		return res, fmt.Errorf("E11: %d tenants collapsed", res.Collapsed)
	}
	return res, nil
}

// E11Table renders the E11 result.
func E11Table(r FleetResult) *Table {
	t := NewTable("E11: multi-tenant fleet scale-out — mixed workload with mid-run failovers",
		"metric", "value")
	t.AddRow("tenant namespaces", r.Tenants)
	t.AddRow("orders placed (fleet)", r.OrdersPlaced)
	t.AddRow("tenants failed over mid-run", r.FailedOver)
	t.AddRow("tenants running snapshot analytics", r.Analytics)
	t.AddRow("tenants verified consistent", r.Verified)
	t.AddRow("tenants collapsed", r.Collapsed)
	t.AddRow("commits lost in flight (failovers)", r.LostTxns)
	t.AddRow("journal records applied at backup", r.BackupApplied)
	t.AddRow("mean tag -> replication ready", r.MeanTimeToReady)
	t.AddRow("max tag -> replication ready", r.MaxTimeToReady)
	t.AddRow("mean failover recovery time", r.MeanRecovery)
	t.AddRow("fleet virtual time", r.SimTime)
	t.AddRow("scheduler workers", r.Workers)
	t.AddRow("kernel handoffs (process resumes)", r.Kernel.Handoffs)
	t.AddRow("kernel inline steps (no handoff)", r.Kernel.InlineSteps)
	t.AddRow("kernel heap pushes", r.Kernel.HeapPushes)
	t.AddRow("kernel same-instant FIFO bypasses", r.Kernel.FifoBypasses)
	t.AddRow("kernel timer entries canceled eagerly", r.Kernel.TimerCancels)
	t.AddRow("kernel parallel rounds merged", r.Kernel.ParallelRounds)
	t.AddRow("kernel steps run in parallel rounds", r.Kernel.ParallelSteps)
	t.AddNote("shape: every tenant's image is a consistent cut; lost in-flight commits are RPO, not collapse")
	return t
}
