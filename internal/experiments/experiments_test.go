package experiments

import (
	"flag"
	"testing"
	"time"
)

// fleetTenants sizes the E11 parallel-scheduler smoke test. The default is
// small so `go test -race ./...` (make ci) stays cheap; raise it to stress
// the parallel kernel at scale: go test -race -run E11FleetSmoke \
// ./internal/experiments -fleet.tenants=64
var fleetTenants = flag.Int("fleet.tenants", 8, "tenant count for the E11 parallel smoke test")

// These tests assert the SHAPE of each experiment's result — the
// reproduction criteria from DESIGN.md: who wins, by roughly what factor,
// and which invariants never break.

func TestE5ADCTracksBaselineSDCPaysRTT(t *testing.T) {
	rtts := []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	results, err := E5Slowdown(1, rtts, 30)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]SlowdownResult{}
	for _, r := range results {
		byKey[r.RTT.String()+string(r.Mode)] = r
	}
	for _, rtt := range rtts {
		none := byKey[rtt.String()+string(ModeNone)]
		adc := byKey[rtt.String()+string(ModeADC)]
		sdc := byKey[rtt.String()+string(ModeSDC)]
		// ADC within 2x of baseline (journal append cost only).
		if adc.MeanOrder > 2*none.MeanOrder {
			t.Errorf("rtt=%v: ADC %v vs baseline %v — slowdown visible", rtt, adc.MeanOrder, none.MeanOrder)
		}
		// SDC pays at least one RTT per commit (each order commits twice,
		// and each commit's WAL flush crosses the link).
		if sdc.MeanOrder < adc.MeanOrder+rtt {
			t.Errorf("rtt=%v: SDC %v not slower than ADC %v by >= RTT", rtt, sdc.MeanOrder, adc.MeanOrder)
		}
		// Closed loop: business throughput follows order latency, whatever
		// the link. The drain tail after the last order is not business time.
		if adc.Throughput < 0.9*none.Throughput {
			t.Errorf("rtt=%v: ADC %.0f orders/s vs baseline %.0f — backup is charged to business processing",
				rtt, adc.Throughput, none.Throughput)
		}
	}
	// SDC degrades with RTT; ADC does not.
	adcSmall := byKey[rtts[0].String()+string(ModeADC)]
	adcBig := byKey[rtts[2].String()+string(ModeADC)]
	if adcBig.MeanOrder > adcSmall.MeanOrder*3/2 {
		t.Errorf("ADC latency grew with RTT: %v -> %v", adcSmall.MeanOrder, adcBig.MeanOrder)
	}
	sdcSmall := byKey[rtts[0].String()+string(ModeSDC)]
	sdcBig := byKey[rtts[2].String()+string(ModeSDC)]
	if sdcBig.MeanOrder < 5*sdcSmall.MeanOrder {
		t.Errorf("SDC latency did not scale with RTT: %v -> %v", sdcSmall.MeanOrder, sdcBig.MeanOrder)
	}
	t.Log("\n" + E5Table(results).String())
}

func TestE6CollapseOnlyWithoutCG(t *testing.T) {
	const trials, orders = 12, 300
	noCG, err := E6Collapse(100, trials, orders, ModeADCNoCG)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := E6Collapse(100, trials, orders, ModeADC)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Collapsed != 0 {
		t.Errorf("consistency group collapsed %d/%d trials — must be 0", cg.Collapsed, cg.Trials)
	}
	if noCG.Collapsed == 0 {
		t.Errorf("per-volume replication never collapsed in %d trials — scenario too easy", trials)
	}
	if cg.OrderingBroken != 0 || noCG.OrderingBroken != 0 {
		t.Errorf("per-volume ordering broke: cg=%d nocg=%d", cg.OrderingBroken, noCG.OrderingBroken)
	}
	t.Log("\n" + E6Table([]CollapseResult{cg, noCG}).String())
}

func TestE7RPOGrowsAsLinkSaturates(t *testing.T) {
	rtts := []time.Duration{10 * time.Millisecond}
	bws := []float64{2e5, 2e6, 1e9}
	results, err := E7RPO(1, rtts, bws, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var slow, fast RPOResult
	for _, r := range results {
		if r.Mode != ModeADC {
			continue
		}
		switch r.Bandwidth {
		case bws[0]:
			slow = r
		case bws[2]:
			fast = r
		}
	}
	if slow.MeanRPO <= fast.MeanRPO {
		t.Errorf("RPO did not grow as bandwidth shrank: %v (slow link) vs %v (fast link)", slow.MeanRPO, fast.MeanRPO)
	}
	if fast.MeanRPO > 50*time.Millisecond {
		t.Errorf("RPO on a fat link = %v, want near the RTT scale", fast.MeanRPO)
	}
	for _, r := range results {
		if r.Mode == ModeSDC && (r.MeanRPO != 0 || r.MaxRPO != 0) {
			t.Errorf("SDC RPO nonzero: %+v", r)
		}
	}
	t.Log("\n" + E7Table(results).String())
}

func TestE8RecoveryGrowsWithReplayAndNeedsCG(t *testing.T) {
	counts := []int{20, 80, 200}
	cg, err := E8Recovery(7, counts, ModeADC)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cg {
		if !r.BusinessIntact {
			t.Errorf("CG recovery not intact at %d orders", r.Orders)
		}
	}
	if !(cg[2].RecoveryTime > cg[0].RecoveryTime) {
		t.Errorf("recovery time flat: %v -> %v", cg[0].RecoveryTime, cg[2].RecoveryTime)
	}
	noCG, err := E8Recovery(7, []int{200, 220, 240, 260}, ModeADCNoCG)
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
	for _, r := range noCG {
		if !r.BusinessIntact {
			broken++
		}
	}
	if broken == 0 {
		t.Error("no-CG recovery always intact — collapse scenario not exercised")
	}
	t.Log("\n" + E8Table(append(cg, noCG...)).String())
}

func TestE2OperatorConstantUserOps(t *testing.T) {
	counts := []int{2, 8, 32}
	results, err := E2Operator(1, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.UserOpsNSO != 1 {
			t.Errorf("NSO ops at %d volumes = %d, want 1", r.Volumes, r.UserOpsNSO)
		}
		if r.UserOpsHand <= r.UserOpsNSO*4 {
			t.Errorf("hand ops at %d volumes = %d — not meaningfully worse", r.Volumes, r.UserOpsHand)
		}
	}
	if results[2].UserOpsHand <= results[0].UserOpsHand {
		t.Error("hand operations did not grow with volume count")
	}
	if results[2].TimeToReady <= 0 {
		t.Error("no time-to-ready measured")
	}
	t.Log("\n" + E2Table(results).String())
}

func TestE3SnapshotAtomicAndCOWProportional(t *testing.T) {
	results, err := E3SnapshotGroup(1, []int{2, 8}, []float64{0, 0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Atomic {
			t.Errorf("group of %d not atomic", r.Volumes)
		}
		if r.CreateTime != 0 {
			t.Errorf("creation consumed %v, want instantaneous COW-metadata install", r.CreateTime)
		}
		if !r.SnapshotReadable {
			t.Errorf("snapshot lost originals at overwrite=%v", r.OverwriteFrac)
		}
		wantCOW := int(r.OverwriteFrac * 256 * float64(r.Volumes))
		if r.COWBlocks != wantCOW {
			t.Errorf("COW blocks = %d, want %d (first overwrite only)", r.COWBlocks, wantCOW)
		}
	}
	t.Log("\n" + E3Table(results).String())
}

func TestE4AnalyticsDoNotInterfere(t *testing.T) {
	results, err := E4Analytics(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	base, with := results[0], results[1]
	if with.OrderMean > base.OrderMean*11/10 {
		t.Errorf("analytics slowed main-site orders: %v -> %v", base.OrderMean, with.OrderMean)
	}
	if base.RPOAfter != 0 || with.RPOAfter != 0 {
		t.Errorf("RPO after catch-up: base=%v with=%v", base.RPOAfter, with.RPOAfter)
	}
	if with.OrdersSeen != 20 {
		t.Errorf("analytics saw %d orders, want frozen 20", with.OrdersSeen)
	}
	if with.JoinUnmatched != 0 {
		t.Errorf("join unmatched = %d", with.JoinUnmatched)
	}
	t.Log("\n" + E4Table(results).String())
}

func TestE1EndToEndConsistent(t *testing.T) {
	res, err := E1EndToEnd(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticsOrders != 50 {
		t.Errorf("analytics orders = %d, want 50", res.AnalyticsOrders)
	}
	if !res.Consistent || !res.FailoverIntact {
		t.Errorf("pipeline inconsistent: %+v", res)
	}
	if res.FailoverTime <= 0 {
		t.Error("failover recovery free")
	}
	t.Log("\n" + E1Table(res).String())
}

func TestE9BatchSweepShape(t *testing.T) {
	results, err := E9BatchSweep(1, []int{1, 16, 256}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Transfers <= results[2].Transfers {
		t.Errorf("transfers did not fall with batch size: %d -> %d", results[0].Transfers, results[2].Transfers)
	}
	t.Log("\n" + E9BatchTable(results).String())
}

func TestE9CGScaleFlat(t *testing.T) {
	results, err := E9CGScale(1, []int{2, 8, 32}, 20)
	if err != nil {
		t.Fatal(err)
	}
	var cg2, cg32 time.Duration
	for _, r := range results {
		if r.Mode == ModeADC && r.Volumes == 2 {
			cg2 = r.MeanCommit
		}
		if r.Mode == ModeADC && r.Volumes == 32 {
			cg32 = r.MeanCommit
		}
	}
	if cg32 > cg2*2 {
		t.Errorf("CG write latency grew with group size: %v -> %v", cg2, cg32)
	}
	t.Log("\n" + E9CGScaleTable(results).String())
}

func TestE10FailbackDeltaBeatsFullCopy(t *testing.T) {
	results, err := E10Failback(1, []int{10, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.ReverseOK {
			t.Errorf("reverse replication broken after %d-write outage", r.OutageOrders)
		}
		if r.DeltaBlocks >= r.FullBlocks {
			t.Errorf("delta %d not smaller than full copy %d", r.DeltaBlocks, r.FullBlocks)
		}
	}
	if !(results[2].DeltaBlocks > results[0].DeltaBlocks) {
		t.Errorf("delta did not grow with outage: %d -> %d", results[0].DeltaBlocks, results[2].DeltaBlocks)
	}
	if !(results[2].ResyncTime > results[0].ResyncTime) {
		t.Errorf("resync time flat: %v -> %v", results[0].ResyncTime, results[2].ResyncTime)
	}
	t.Log("\n" + E10Table(results).String())
}

func TestE9SkewInsensitive(t *testing.T) {
	results, err := E9SkewSweep(1, []float64{-1, 1.2, 2.0}, 60)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := results[0].MeanOrder, results[0].MeanOrder
	for _, r := range results {
		if r.MeanOrder < lo {
			lo = r.MeanOrder
		}
		if r.MeanOrder > hi {
			hi = r.MeanOrder
		}
	}
	if hi > lo*2 {
		t.Errorf("latency varied %v..%v across skews", lo, hi)
	}
	t.Log("\n" + E9SkewTable(results).String())
}

func TestE12InterferenceOrderingAndFailover(t *testing.T) {
	results, err := E12Interference(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]InterferenceResult{}
	for _, r := range results {
		by[r.Scenario] = r
		if !r.Consistent {
			t.Errorf("%s: a tenant's consistency cut broke", r.Scenario)
		}
		if r.VictimOrders == 0 {
			t.Errorf("%s: victim placed no orders", r.Scenario)
		}
	}
	base, noqos, weighted, dedicated := by["baseline"], by["no-qos"], by["weighted"], by["dedicated"]
	failover := by["link-failure"]

	// Who wins: victim degradation is worst with no QoS on the shared
	// fabric, bounded under weighted classes, near-isolated on a
	// dedicated link.
	if noqos.VictimMeanRPO < 3*weighted.VictimMeanRPO {
		t.Errorf("no-qos RPO %v not >> weighted %v", noqos.VictimMeanRPO, weighted.VictimMeanRPO)
	}
	if noqos.VictimMeanXfer < 3*weighted.VictimMeanXfer {
		t.Errorf("no-qos drain xfer %v not >> weighted %v", noqos.VictimMeanXfer, weighted.VictimMeanXfer)
	}
	if weighted.VictimMeanRPO <= dedicated.VictimMeanRPO {
		t.Errorf("weighted RPO %v not above dedicated %v", weighted.VictimMeanRPO, dedicated.VictimMeanRPO)
	}
	if weighted.VictimMeanXfer <= dedicated.VictimMeanXfer {
		t.Errorf("weighted drain xfer %v not above dedicated %v", weighted.VictimMeanXfer, dedicated.VictimMeanXfer)
	}
	if dedicated.VictimMeanRPO > 2*base.VictimMeanRPO+5*time.Millisecond {
		t.Errorf("dedicated link not near-isolated: %v vs baseline %v", dedicated.VictimMeanRPO, base.VictimMeanRPO)
	}
	// Catch-up (drain) latency tells the same story end to end.
	if noqos.VictimCatchUp < 5*weighted.VictimCatchUp {
		t.Errorf("no-qos catch-up %v not >> weighted %v", noqos.VictimCatchUp, weighted.VictimCatchUp)
	}

	// Mid-run member-link failure: traffic reroutes onto the survivor (the
	// dead member carries at most its in-flight batch) and no tenant's
	// consistency cut breaks.
	if failover.ReroutedBytes == 0 {
		t.Error("link failure rerouted no traffic")
	}
	if failover.DeadLinkBytes*5 > failover.ReroutedBytes {
		t.Errorf("dead member carried %dB during its outage vs survivor %dB",
			failover.DeadLinkBytes, failover.ReroutedBytes)
	}
	if !failover.Consistent {
		t.Error("link failure violated a consistency cut")
	}
	t.Log("\n" + E12Table(results).String())

	// The scheduled scenarios (passthrough fabrics have no dispatcher to
	// window) again with four transfers in flight per link: pipelined
	// dispatch only overlaps serialization with propagation, so every
	// tenant's consistency cut must survive it.
	for _, sc := range e12Scenarios() {
		if len(sc.classes) == 0 {
			continue
		}
		sc.window = 4
		r, err := e12Run(1, sc, 40)
		if err != nil {
			t.Fatalf("%s at window 4: %v", sc.name, err)
		}
		if !r.Consistent {
			t.Errorf("%s at window 4: a tenant's consistency cut broke", sc.name)
		}
	}
}

func TestE13ShardedThroughputScalesAndCutsHold(t *testing.T) {
	counts := []int{1, 2, 4}
	results, err := E13ShardedThroughput(1, counts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(counts) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		// The mid-run failover must land mid-drain (some committed, some
		// lost) and the image must be an exact ack-order prefix at EVERY
		// shard count — the epoch barrier's whole point.
		if !r.FailoverConsistent {
			t.Errorf("shards=%d: failover image not an exact prefix (cut=%d lost=%d)", r.Shards, r.CutWrites, r.LostWrites)
		}
		if r.CutWrites == 0 || r.LostWrites == 0 {
			t.Errorf("shards=%d: failover scenario degenerate (cut=%d lost=%d)", r.Shards, r.CutWrites, r.LostWrites)
		}
		if r.Shards > 1 && r.EpochCommits == 0 {
			t.Errorf("shards=%d: no epoch cuts declared", r.Shards)
		}
		if r.Shards == 1 && r.EpochCommits != 0 {
			t.Errorf("shards=1 ran the sharded engine (passthrough broken)")
		}
	}
	// Who wins: drain throughput grows with lane count, >= 2x at 4 shards.
	if results[1].ThroughputMBps <= results[0].ThroughputMBps {
		t.Errorf("2 shards (%.2f MB/s) not faster than 1 (%.2f MB/s)",
			results[1].ThroughputMBps, results[0].ThroughputMBps)
	}
	if results[2].Speedup < 2 {
		t.Errorf("4-shard speedup = %.2fx, want >= 2x", results[2].Speedup)
	}
	t.Log("\n" + E13Table(results).String())
}

func TestE11FleetAllTenantsConsistentAfterMixedRun(t *testing.T) {
	res, err := E11FleetScale(3, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != 24 || res.Verified != 24 || res.Collapsed != 0 {
		t.Fatalf("fleet verdicts wrong: %+v", res)
	}
	if res.FailedOver == 0 || res.Analytics == 0 {
		t.Fatalf("mixed workload degenerate: %+v", res)
	}
	if res.OrdersPlaced == 0 || res.BackupApplied == 0 {
		t.Fatalf("fleet did no work: %+v", res)
	}
	// Failover tenants stop mid-run without catch-up, so the fleet-wide
	// order count must be below the no-disaster maximum.
	if res.OrdersPlaced >= int64(24*6) {
		t.Fatalf("failover tenants should cut order volume: %+v", res)
	}
}

// TestE11FleetSmokeParallel runs a small E11 fleet on the parallel scheduler
// (4 workers regardless of host cores). Under `go test -race` — which make
// ci runs — this is the standing data-race smoke for the kernel's parallel
// rounds: tenant subgraphs really do execute on concurrent goroutines here,
// so the race detector sees every cross-domain access pattern the full-scale
// fleet exercises.
func TestE11FleetSmokeParallel(t *testing.T) {
	res, err := E11FleetScaleWorkers(11, *fleetTenants, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified != res.Tenants || res.Collapsed != 0 {
		t.Fatalf("fleet verdicts wrong: %+v", res)
	}
	if res.Kernel.ParallelRounds == 0 || res.Kernel.ParallelSteps == 0 {
		t.Fatalf("parallel scheduler never formed a parallel round: %+v", res.Kernel)
	}
}

// TestE16ObservabilityValidatesEveryTimeline runs the churning fleet with
// the telemetry plane on: every tenant (joins included) verifies consistent
// and the worst-RPO ranking reads non-zero probed timelines
// (E16Observability itself fails on incomplete churn or overlapping spans).
func TestE16ObservabilityValidatesEveryTimeline(t *testing.T) {
	res, err := E16Observability(1, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified != res.Tenants {
		t.Errorf("verified %d of %d tenants", res.Verified, res.Tenants)
	}
	if len(res.TopRPO) == 0 || res.TopRPO[0].Max <= 0 {
		t.Errorf("no probed RPO timeline ranked: %+v", res.TopRPO)
	}
	t.Log("\n" + E16Table(res).String())
}

func TestE14ElasticityJoinsLeavesAndReclaims(t *testing.T) {
	res, err := E14Elasticity(1, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified != res.Tenants+res.Joined || res.Collapsed != 0 {
		t.Fatalf("verdicts wrong: %+v", res)
	}
	if res.Joined != 2 || res.Left != 1 {
		t.Fatalf("churn degenerate: %+v", res)
	}
	// Joins must reach Ready while the fleet serves load — and one of them
	// must have been in flight while a site failover ran.
	if res.JoinReadyMax <= 0 {
		t.Fatalf("no join time-to-ready measured: %+v", res)
	}
	if !res.JoinDuringFailover {
		t.Fatalf("no join raced a failover: %+v", res)
	}
	// The leave's reclamation invariant: zero residue on both arrays.
	if !res.ReclaimOK || res.ResidueLeaks != 0 {
		t.Fatalf("decommission leaked: %+v", res)
	}
	// Victim disturbance stays bounded: churn may cost the bystanders some
	// RPO, but not an order of magnitude over the steady baseline.
	if res.VictimMaxRPOBase <= 0 {
		t.Fatalf("no baseline victim RPO sampled: %+v", res)
	}
	if res.VictimMaxRPOChurn > 10*res.VictimMaxRPOBase {
		t.Fatalf("churn disturbed victims: %v -> %v", res.VictimMaxRPOBase, res.VictimMaxRPOChurn)
	}
	t.Log("\n" + E14Table(res).String())
}

// TestE15ReshardLiveMigration pins the dynamic-resharding shape: the live
// 1->4 reshard at least doubles drain throughput, migrates only re-placed
// volumes' records, keeps the bystanders committing, survives a failover
// raced into the migration window with an exact epoch-boundary prefix, and
// an unchanged reconcile migrates nothing.
func TestE15ReshardLiveMigration(t *testing.T) {
	res, err := E15Reshard(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupPostVsPre < 2 {
		t.Errorf("post/pre speedup = %.2fx, want >= 2x (pre=%.2f post=%.2f)",
			res.SpeedupPostVsPre, res.PreMBps, res.PostMBps)
	}
	if res.StallTime <= 0 {
		t.Error("migration stall not measured")
	}
	if res.BarrierEpoch == 0 || res.MovedVolumes == 0 || res.MovedRecords == 0 {
		t.Errorf("migration degenerate: %+v", res)
	}
	if res.MovedVolumes >= e15Volumes {
		t.Errorf("all %d volumes moved; the stable hash must keep shard-0 residents in place", res.MovedVolumes)
	}
	if !res.NoopZeroMigration {
		t.Error("unchanged reconcile migrated records or replaced the engine")
	}
	if res.BackgroundOrders == 0 {
		t.Error("bystander tenants placed no orders during the reshard")
	}
	if !res.RacedWindow {
		t.Error("failover run never raced the open migration window")
	}
	if !res.FailoverConsistent {
		t.Errorf("mid-window failover image not an exact prefix: cut=%d lost=%d", res.CutWrites, res.LostWrites)
	}
	if res.CutWrites == 0 || res.LostWrites == 0 {
		t.Errorf("failover scenario degenerate: cut=%d lost=%d", res.CutWrites, res.LostWrites)
	}
	t.Log("\n" + E15Table(res).String())
}

func TestE18PipeFillScalesAndStaysInOrder(t *testing.T) {
	windows := []int{1, 4, 16}
	results, err := E18PipeFill(1, windows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(windows) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.OrderOK {
			t.Errorf("window=%d: per-link delivery order violated", r.Window)
		}
		if !r.FailoverConsistent {
			t.Errorf("window=%d: failover image not an exact prefix (cut=%d lost=%d)", r.Window, r.CutWrites, r.LostWrites)
		}
		if r.Window > 1 {
			// Every frame committed to the wire at the cut delivers during
			// the partition (at most one extra frame was mid-serialization);
			// nothing queued behind the cut sneaks out.
			if r.DeliveredDuringCut < int64(r.InFlightAtCut) || r.DeliveredDuringCut > int64(r.InFlightAtCut)+1 {
				t.Errorf("window=%d: delivered %d during cut with %d in flight", r.Window, r.DeliveredDuringCut, r.InFlightAtCut)
			}
			if r.InFlightAtCut < 2 {
				t.Errorf("window=%d: cut landed with only %d frames in flight — not mid-window", r.Window, r.InFlightAtCut)
			}
			if r.Pipelined == 0 {
				t.Errorf("window=%d: no overlapped sends recorded", r.Window)
			}
			if r.MaxInFlight > r.Window {
				t.Errorf("window=%d: %d frames in flight exceeds the window", r.Window, r.MaxInFlight)
			}
		}
	}
	// The acceptance shape: near-linear gain with the window over the 50ms
	// geo hop, >= 5x by window=16 on the same schedule.
	if results[1].Speedup < 2.5 {
		t.Errorf("window=4 speedup = %.2fx, want >= 2.5x", results[1].Speedup)
	}
	if results[2].Speedup < 5 {
		t.Errorf("window=16 speedup = %.2fx, want >= 5x", results[2].Speedup)
	}
	t.Log("\n" + E18Table(results).String())
}
