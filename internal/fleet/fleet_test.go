package fleet

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

func testConfig(tenants, orders int) Config {
	return Config{
		Tenants:         tenants,
		OrdersPerTenant: orders,
		System:          core.Config{Seed: 42, VolumeBlocks: 256},
	}
}

func TestFleetRolesInterleaveAndCover(t *testing.T) {
	f := New(testConfig(16, 4))
	var fail, ana, plain int
	for _, tn := range f.Tenants {
		switch {
		case tn.Failover && tn.Analytics:
			t.Fatalf("%s has both roles", tn.Namespace)
		case tn.Failover:
			fail++
		case tn.Analytics:
			ana++
		default:
			plain++
		}
	}
	if fail != 4 || ana != 4 || plain != 8 {
		t.Fatalf("roles fail=%d ana=%d plain=%d, want 4/4/8", fail, ana, plain)
	}
}

func TestFleetMixedWorkloadAllTenantsConsistent(t *testing.T) {
	f := New(testConfig(12, 6))
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Verified != 12 || tot.Collapsed != 0 {
		t.Fatalf("verified=%d collapsed=%d: %+v", tot.Verified, tot.Collapsed, tot)
	}
	if tot.FailedOver == 0 || tot.Analytics == 0 {
		t.Fatalf("mixed workload degenerate: %+v", tot)
	}
	for _, tn := range f.Tenants {
		if tn.OrdersPlaced == 0 {
			t.Fatalf("%s placed no orders", tn.Namespace)
		}
		if tn.Analytics && tn.AnalyticsOrders < 0 {
			t.Fatalf("%s never ran analytics", tn.Namespace)
		}
		if tn.Failover && tn.RecoveryTime <= 0 {
			t.Fatalf("%s failed over with zero recovery time", tn.Namespace)
		}
	}
}

// TestFleetFailoverTenantsLoseOnlyTail pins the disaster semantics: failover
// without catch-up may lose in-flight commits (RPO) but each lost set is a
// tail — the recovered image is a consistent prefix, never a collapse.
func TestFleetFailoverTenantsLoseOnlyTail(t *testing.T) {
	cfg := testConfig(8, 10)
	// A slow, thin link keeps a real backlog in flight at the cut.
	cfg.System.Fabric.Links = []netlink.Config{{Propagation: 20 * time.Millisecond, BandwidthBps: 2e5}}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var lost int
	for _, tn := range f.Tenants {
		if !tn.Failover {
			continue
		}
		if tn.Report.Collapsed() || !tn.Report.OrderingOK() {
			t.Fatalf("%s: inconsistent image: %v", tn.Namespace, tn.Report)
		}
		lost += tn.Report.LostSalesTxns + tn.Report.LostStockTxns
	}
	if lost == 0 {
		t.Fatal("slow link produced no in-flight loss; disaster path untested")
	}
}

// TestFleetPerTenantQoSOnMultiLinkFabric drives the whole platform stack —
// operator, replication plugin, drains — over a two-member fabric with
// weighted QoS classes. The run must stay consistent, every tenant's path
// must carry its drain traffic, and both members must carry bytes.
func TestFleetPerTenantQoSOnMultiLinkFabric(t *testing.T) {
	cfg := testConfig(8, 6)
	member := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 1e7}
	cfg.System.Fabric = fabric.Config{
		Links: []netlink.Config{member, member},
		Classes: []fabric.ClassConfig{
			{Name: "gold", Weight: 4},
			{Name: "bulk", Weight: 1},
		},
	}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Verified != 8 || tot.Collapsed != 0 {
		t.Fatalf("fleet on QoS fabric inconsistent: %+v", tot)
	}
	if tot.FabricBytes == 0 {
		t.Fatal("no drain traffic crossed the fabric")
	}
	for _, tn := range f.Tenants {
		if f.Sys.TenantPath(tn.Namespace) == nil {
			t.Fatalf("%s has no fabric path", tn.Namespace)
		}
		if tn.FabricBytes == 0 {
			t.Fatalf("%s moved no bytes through the fabric", tn.Namespace)
		}
	}
	// Both members must carry forward traffic.
	links := f.Sys.Fabric.Forward.Links()
	if links[0].SentBytes() == 0 || links[1].SentBytes() == 0 {
		t.Fatalf("fabric members unbalanced: %d / %d", links[0].SentBytes(), links[1].SentBytes())
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	type result struct {
		trace []sim.TraceEntry
		outs  []tenantOutcome
		end   time.Duration
	}
	run := func(cfg Config, workers int) (r result) {
		r.trace, r.outs, r.end, _ = runGoldenFleet(t, cfg, workers)
		return r
	}
	same := func(a, b result) bool {
		return a.end == b.end && slices.Equal(a.trace, b.trace) && slices.Equal(a.outs, b.outs)
	}
	if cfg := testConfig(6, 4); !same(run(cfg, 1), run(cfg, 1)) {
		t.Fatal("6 tenants: two runs differ")
	}

	// A 256-tenant burst keeps every controller's eight workers busy with
	// each other's tenants from t=0: the same steps and outcomes twice and
	// on the parallel scheduler, every tenant verified — and provisioned in
	// well under what one worker per controller took (about 6 ms of
	// reconciles per tenant back to back, so 256 x 6 ms / 2 mean; the
	// measured slope is near 0.44 ms per tenant against 3.5).
	burst := testConfig(256, 2)
	burst.StartBarrier = true
	a := run(burst, 1)
	if !same(a, run(burst, 1)) {
		t.Fatal("256-tenant burst: two runs differ")
	}
	if !same(a, run(burst, 2)) {
		t.Fatal("256-tenant burst: the parallel scheduler's run differs from the sequential one")
	}
	var ready time.Duration
	for _, o := range a.outs {
		if !o.Verified {
			t.Fatalf("256-tenant burst: %s not verified (%s)", o.Namespace, o.Err)
		}
		ready += o.TimeToReady
	}
	if mean, limit := ready/256, 256*6*time.Millisecond/2/3; mean >= limit {
		t.Fatalf("256-tenant burst: mean time to ready %v, want under %v", mean, limit)
	}
}

// TestFleetControlPlaneAtScale provisions 1,024 shop tenants at once (the
// benchmark's fleet). Reconcilers read the informer cache and each owns one
// queue, so a tenant costs the control plane its writes: fewer than 30 API
// calls over its whole life, provisioning included (136 when every read was
// a round trip). The tenant controller never retries — its one contested
// write, the namespace label, cannot meet a sibling reconcile of the same
// tenant — and the whole fleet retries a handful of times at most (the
// replication plugin finding a claim not yet bound).
func TestFleetControlPlaneAtScale(t *testing.T) {
	const tenants = 1024
	f := New(Config{
		Tenants:         tenants,
		OrdersPerTenant: 8,
		StartBarrier:    true,
		System: core.Config{
			Seed:         1,
			VolumeBlocks: 256,
			Storage:      storage.Config{BlockSize: 512},
			Telemetry:    &telemetry.Config{},
		},
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if tot := f.Totals(); tot.Verified != tenants {
		t.Fatalf("verified %d of %d tenants", tot.Verified, tenants)
	}
	var requeues, tenantRequeues int64
	for key, n := range f.Sys.Telemetry.Snapshot().Counters {
		if strings.HasPrefix(key, "controller.requeues") {
			requeues += n
		}
		if strings.HasPrefix(key, "controller.requeues{controller=tenant-controller") {
			tenantRequeues += n
		}
	}
	if requeues > 8 {
		t.Errorf("%d reconcile errors across the control plane, want at most 8", requeues)
	}
	if tenantRequeues != 0 {
		t.Errorf("tenant controller retried %d times, want 0 (no conflict on the namespace-label write)", tenantRequeues)
	}
	if calls := f.Sys.Main.API.Calls() + f.Sys.Backup.API.Calls(); calls > 30*tenants {
		t.Errorf("%d API calls for %d tenants (%.1f each), want at most 30 each", calls, tenants, float64(calls)/tenants)
	}
}

// TestFleetShardedJournals runs the mixed workload with every tenant's
// consistency-group journal sharded across two drain lanes: the
// JournalShards knob threads fleet -> core -> operator -> replication
// plugin, every tenant's image stays a consistent cut (the epoch barrier at
// DB granularity), and the per-lane fabric counters surface on the tenants.
func TestFleetShardedJournals(t *testing.T) {
	cfg := testConfig(8, 6)
	cfg.JournalShards = 2
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Verified != 8 || tot.Collapsed != 0 {
		t.Fatalf("verdicts: %+v", tot)
	}
	if tot.FabricBytes == 0 {
		t.Fatal("no lane-path bytes counted — sharded drains not on fabric paths")
	}
	for _, tn := range f.Tenants {
		for _, g := range f.Sys.Groups(tn.Namespace) {
			if g.Lanes() != cfg.JournalShards {
				t.Fatalf("%s engine runs %d lanes, want %d", tn.Namespace, g.Lanes(), cfg.JournalShards)
			}
		}
	}
}

// TestFleetChurnJoinsAndLeaves drives the elasticity path directly: a join
// provisioned mid-run under the fleet's load, a leave that decommissions a
// verified tenant, and the reclamation invariant on both.
func TestFleetChurnJoinsAndLeaves(t *testing.T) {
	cfg := testConfig(8, 6)
	cfg.System.Telemetry = &telemetry.Config{SamplePeriod: 5 * time.Millisecond}
	cfg.Joins = []JoinSpec{{After: 30 * time.Millisecond}}
	cfg.Leaves = []LeaveSpec{{Tenant: 3, After: 60 * time.Millisecond}}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Tenants != 9 || tot.Verified != 9 || tot.Collapsed != 0 {
		t.Fatalf("verdicts: %+v", tot)
	}
	if tot.Joined != 1 || tot.Left != 1 || tot.ReclaimFailures != 0 {
		t.Fatalf("churn outcomes: %+v", tot)
	}
	if tot.MaxJoinReady <= 0 {
		t.Fatalf("join time-to-ready not measured: %+v", tot)
	}
	leaver := f.Tenants[3]
	if !leaver.Left || !leaver.ReclaimOK || leaver.Failover || leaver.Analytics {
		t.Fatalf("leaver state: %+v", leaver)
	}
	if res := f.Sys.TenantResidue(leaver.Namespace); len(res) != 0 {
		t.Fatalf("leaver residue: %v", res)
	}
	joiner := f.Tenants[8]
	if !joiner.Join || joiner.JoinedAt < cfg.Joins[0].After {
		t.Fatalf("joiner state: %+v", joiner)
	}
	if joiner.FabricBytes == 0 {
		t.Fatal("joiner moved no bytes through the fabric")
	}
	if top := f.Sys.Telemetry.TopK("rpo", 1, 0, f.Sys.Env.Now()); len(top) == 0 || top[0].Max <= 0 {
		t.Fatalf("rpo probe recorded nothing: %+v", top)
	}
}

// TestFleetChurnDeterministicAcrossSeeds pins determinism under churn: the
// same seed reproduces the identical run (orders, virtual time, join
// readiness), and different seeds still converge to all-verified.
func TestFleetChurnDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) (int64, time.Duration, time.Duration) {
		cfg := testConfig(6, 4)
		cfg.System.Seed = seed
		cfg.System.Telemetry = &telemetry.Config{SamplePeriod: 5 * time.Millisecond}
		cfg.Joins = []JoinSpec{{After: 20 * time.Millisecond}, {After: 50 * time.Millisecond}}
		cfg.Leaves = []LeaveSpec{{Tenant: 2, After: 40 * time.Millisecond}}
		f := New(cfg)
		if err := f.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tot := f.Totals()
		if tot.Verified != tot.Tenants || tot.Collapsed != 0 || tot.ReclaimFailures != 0 {
			t.Fatalf("seed %d verdicts: %+v", seed, tot)
		}
		return tot.OrdersPlaced, f.Sys.Env.Now(), tot.MaxJoinReady
	}
	for _, seed := range []int64{7, 99} {
		o1, t1, j1 := run(seed)
		o2, t2, j2 := run(seed)
		if o1 != o2 || t1 != t2 || j1 != j2 {
			t.Fatalf("seed %d nondeterministic: (%d,%v,%v) vs (%d,%v,%v)", seed, o1, t1, j1, o2, t2, j2)
		}
	}
}

// TestFleetMidRunReshard drives the Reshards churn schedule: one tenant is
// widened 1->4 and another narrowed 2->1 mid-run while the whole fleet
// serves OLTP load; both settle, the fleet stays fully consistent, and the
// widened tenant ends on a multi-lane engine.
func TestFleetMidRunReshard(t *testing.T) {
	cfg := testConfig(8, 8)
	cfg.JournalShards = 2
	// Tenants 0-1 carry the failover role and 6-7 analytics; pick plain
	// OLTP tenants so the reshard exercises a live drain, not a dead one.
	cfg.Reshards = []ReshardSpec{
		{Tenant: 2, After: 30 * time.Millisecond, Shards: 4},
		{Tenant: 5, After: 40 * time.Millisecond, Shards: 1},
	}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Verified != 8 || tot.Collapsed != 0 {
		t.Fatalf("verdicts: %+v", tot)
	}
	if tot.Resharded != 2 || tot.MaxReshardTime <= 0 {
		t.Fatalf("reshard outcomes: %+v (errs: %v, %v)", tot, f.Tenants[2].ReshardErr, f.Tenants[5].ReshardErr)
	}
	wide := f.Tenants[2]
	if !wide.Resharded || wide.ReshardTo != 4 {
		t.Fatalf("widened tenant: %+v", wide)
	}
	if gs := f.Sys.Groups(wide.Namespace); len(gs) != 1 || gs[0].Lanes() != 4 {
		t.Fatalf("widened tenant lanes: %v", gs)
	}
	narrow := f.Tenants[5]
	if !narrow.Resharded || narrow.ReshardTo != 1 {
		t.Fatalf("narrowed tenant: %+v", narrow)
	}
	if gs := f.Sys.Groups(narrow.Namespace); len(gs) != 1 || gs[0].Lanes() != 1 {
		t.Fatalf("narrowed tenant lanes: %v", gs)
	}
}

// TestFleetReshardSkipsDepartedTenant pins the schedule's guard: a reshard
// aimed at a tenant that decommissioned first is recorded as skipped, not a
// fleet failure.
func TestFleetReshardSkipsDepartedTenant(t *testing.T) {
	cfg := testConfig(6, 4)
	cfg.Leaves = []LeaveSpec{{Tenant: 2, After: 10 * time.Millisecond}}
	cfg.Reshards = []ReshardSpec{{Tenant: 2, After: 4 * time.Second, Shards: 4}}
	f := New(cfg)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tn := f.Tenants[2]
	if !tn.Left {
		t.Fatalf("leaver never left: %+v", tn)
	}
	if tn.Resharded || tn.ReshardErr == nil {
		t.Fatalf("reshard of departed tenant: resharded=%v err=%v", tn.Resharded, tn.ReshardErr)
	}
}
