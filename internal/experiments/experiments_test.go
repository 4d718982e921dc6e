package experiments

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// These tests assert the SHAPE of each experiment's result — the
// reproduction criteria from DESIGN.md: who wins, by roughly what factor,
// and which invariants never break.

func TestE5ADCTracksBaselineSDCPaysRTT(t *testing.T) {
	rtts := []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	tb, err := E5Slowdown(1, rtts, 30)
	if err != nil {
		t.Fatal(err)
	}
	rtt, mean, tput := col[time.Duration](t, tb, "rtt"), col[time.Duration](t, tb, "mean"), col[float64](t, tb, "orders/s")
	rows := map[string]int{}
	for i, m := range col[Mode](t, tb, "mode") {
		rows[rtt[i].String()+string(m)] = i
	}
	row := func(d time.Duration, m Mode) int {
		i, ok := rows[d.String()+string(m)]
		if !ok {
			t.Fatalf("no row for rtt=%v mode=%s", d, m)
		}
		return i
	}
	for _, rtt := range rtts {
		none, adc, sdc := row(rtt, ModeNone), row(rtt, ModeADC), row(rtt, ModeSDC)
		// ADC within 2x of baseline (journal append cost only).
		if mean[adc] > 2*mean[none] {
			t.Errorf("rtt=%v: ADC %v vs baseline %v — slowdown visible", rtt, mean[adc], mean[none])
		}
		// SDC pays at least one RTT per commit (each order commits twice,
		// and each commit's WAL flush crosses the link).
		if mean[sdc] < mean[adc]+rtt {
			t.Errorf("rtt=%v: SDC %v not slower than ADC %v by >= RTT", rtt, mean[sdc], mean[adc])
		}
		// Closed loop: business throughput follows order latency, whatever
		// the link. The drain tail after the last order is not business time.
		if tput[adc] < 0.9*tput[none] {
			t.Errorf("rtt=%v: ADC %.0f orders/s vs baseline %.0f — backup is charged to business processing",
				rtt, tput[adc], tput[none])
		}
	}
	// SDC degrades with RTT; ADC does not.
	adcSmall, adcBig := mean[row(rtts[0], ModeADC)], mean[row(rtts[2], ModeADC)]
	if adcBig > adcSmall*3/2 {
		t.Errorf("ADC latency grew with RTT: %v -> %v", adcSmall, adcBig)
	}
	sdcSmall, sdcBig := mean[row(rtts[0], ModeSDC)], mean[row(rtts[2], ModeSDC)]
	if sdcBig < 5*sdcSmall {
		t.Errorf("SDC latency did not scale with RTT: %v -> %v", sdcSmall, sdcBig)
	}
	t.Log("\n" + tb.String())
}

func TestE6CollapseOnlyWithoutCG(t *testing.T) {
	const trials, orders = 12, 300
	tb, err := E6Collapse(100, trials, orders, ModeADC, ModeADCNoCG)
	if err != nil {
		t.Fatal(err)
	}
	if modes := col[Mode](t, tb, "mode"); !slices.Equal(modes, []Mode{ModeADC, ModeADCNoCG}) {
		t.Fatalf("rows = %v, want one per mode", modes)
	}
	collapsed, broken := col[int](t, tb, "collapsed"), col[int](t, tb, "ordering broken")
	if collapsed[0] != 0 {
		t.Errorf("consistency group collapsed %d/%d trials — must be 0", collapsed[0], col[int](t, tb, "trials")[0])
	}
	if collapsed[1] == 0 {
		t.Errorf("per-volume replication never collapsed in %d trials — scenario too easy", trials)
	}
	if broken[0] != 0 || broken[1] != 0 {
		t.Errorf("per-volume ordering broke: cg=%d nocg=%d", broken[0], broken[1])
	}
	t.Log("\n" + tb.String())
}

func TestE7RPOGrowsAsLinkSaturates(t *testing.T) {
	rtts := []time.Duration{10 * time.Millisecond}
	bws := []float64{2e5, 2e6, 1e9}
	tb, err := E7RPO(1, rtts, bws, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	modes, bw := col[Mode](t, tb, "mode"), col[string](t, tb, "bandwidth B/s")
	meanRPO, maxRPO := col[time.Duration](t, tb, "mean RPO"), col[time.Duration](t, tb, "max RPO")
	slow, fast := -1, -1
	for i, m := range modes {
		if m != ModeADC {
			continue
		}
		switch bw[i] {
		case fmt.Sprintf("%.0e", bws[0]):
			slow = i
		case fmt.Sprintf("%.0e", bws[2]):
			fast = i
		}
	}
	if slow < 0 || fast < 0 {
		t.Fatalf("no ADC rows for the slow and fast links in %v", bw)
	}
	if meanRPO[slow] <= meanRPO[fast] {
		t.Errorf("RPO did not grow as bandwidth shrank: %v (slow link) vs %v (fast link)", meanRPO[slow], meanRPO[fast])
	}
	if meanRPO[fast] > 50*time.Millisecond {
		t.Errorf("RPO on a fat link = %v, want near the RTT scale", meanRPO[fast])
	}
	for i, m := range modes {
		if m == ModeSDC && (meanRPO[i] != 0 || maxRPO[i] != 0) {
			t.Errorf("SDC RPO nonzero at row %d: mean %v max %v", i, meanRPO[i], maxRPO[i])
		}
	}
	t.Log("\n" + tb.String())
}

// An empty bandwidth sweep is refused instead of indexing a bandwidth that
// does not exist for the SDC rows.
func TestE7EmptyBandwidthSweepErrors(t *testing.T) {
	if _, err := E7RPO(1, []time.Duration{time.Millisecond}, nil, 10*time.Millisecond); err == nil {
		t.Fatal("E7 ran an empty bandwidth sweep without an error")
	}
}

func TestE8RecoveryGrowsWithReplayAndNeedsCG(t *testing.T) {
	counts := []int{20, 80, 200}
	tb, err := E8Recovery(7, counts, []int{200, 220, 240, 260})
	if err != nil {
		t.Fatal(err)
	}
	modes, orders := col[Mode](t, tb, "mode"), col[int](t, tb, "orders")
	intact, recovery := col[bool](t, tb, "business intact"), col[time.Duration](t, tb, "recovery time")
	if !slices.Equal(modes[:len(counts)], []Mode{ModeADC, ModeADC, ModeADC}) {
		t.Fatalf("modes = %v, want the CG sweep first", modes)
	}
	broken := 0
	for i, m := range modes {
		if m == ModeADC && !intact[i] {
			t.Errorf("CG recovery not intact at %d orders", orders[i])
		}
		if m == ModeADCNoCG && !intact[i] {
			broken++
		}
	}
	if !(recovery[2] > recovery[0]) {
		t.Errorf("recovery time flat: %v -> %v", recovery[0], recovery[2])
	}
	if broken == 0 {
		t.Error("no-CG recovery always intact — collapse scenario not exercised")
	}
	t.Log("\n" + tb.String())
}

func TestE2OperatorConstantUserOps(t *testing.T) {
	counts := []int{2, 8, 32}
	tb, err := E2Operator(1, counts)
	if err != nil {
		t.Fatal(err)
	}
	volumes, nso, hand := col[int](t, tb, "volumes"), col[int](t, tb, "user ops (NSO)"), col[int](t, tb, "user ops (hand)")
	for i := range volumes {
		if nso[i] != 1 {
			t.Errorf("NSO ops at %d volumes = %d, want 1", volumes[i], nso[i])
		}
		if hand[i] <= nso[i]*4 {
			t.Errorf("hand ops at %d volumes = %d — not meaningfully worse", volumes[i], hand[i])
		}
	}
	if hand[2] <= hand[0] {
		t.Error("hand operations did not grow with volume count")
	}
	if col[time.Duration](t, tb, "time to ready")[2] <= 0 {
		t.Error("no time-to-ready measured")
	}
	t.Log("\n" + tb.String())
}

func TestE3SnapshotAtomicAndCOWProportional(t *testing.T) {
	tb, err := E3SnapshotGroup(1, []int{2, 8}, []float64{0, 0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	volumes, frac := col[int](t, tb, "volumes"), col[float64](t, tb, "overwrite")
	atomic, create := col[bool](t, tb, "atomic"), col[time.Duration](t, tb, "create time")
	readable, cow := col[bool](t, tb, "readable"), col[int](t, tb, "COW blocks")
	for i := range volumes {
		if !atomic[i] {
			t.Errorf("group of %d not atomic", volumes[i])
		}
		if create[i] != 0 {
			t.Errorf("creation consumed %v, want instantaneous COW-metadata install", create[i])
		}
		if !readable[i] {
			t.Errorf("snapshot lost originals at overwrite=%v", frac[i])
		}
		if wantCOW := int(frac[i] * 256 * float64(volumes[i])); cow[i] != wantCOW {
			t.Errorf("COW blocks = %d, want %d (first overwrite only)", cow[i], wantCOW)
		}
	}
	t.Log("\n" + tb.String())
}

func TestE4AnalyticsDoNotInterfere(t *testing.T) {
	tb, err := E4Analytics(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	const base, with = "no analytics", "analytics on snapshot"
	d := func(row, header string) time.Duration { return cell[time.Duration](t, tb, row, header) }
	if d(with, "order mean") > d(base, "order mean")*11/10 {
		t.Errorf("analytics slowed main-site orders: %v -> %v", d(base, "order mean"), d(with, "order mean"))
	}
	if d(base, "RPO after") != 0 || d(with, "RPO after") != 0 {
		t.Errorf("RPO after catch-up: base=%v with=%v", d(base, "RPO after"), d(with, "RPO after"))
	}
	if seen := cell[int](t, tb, with, "orders seen"); seen != 20 {
		t.Errorf("analytics saw %d orders, want frozen 20", seen)
	}
	if unmatched := cell[int](t, tb, with, "join unmatched"); unmatched != 0 {
		t.Errorf("join unmatched = %d", unmatched)
	}
	t.Log("\n" + tb.String())
}

func TestE1EndToEndConsistent(t *testing.T) {
	tb, err := E1EndToEnd(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n := cell[int](t, tb, "orders visible to analytics", "value"); n != 50 {
		t.Errorf("analytics orders = %d, want 50", n)
	}
	if !cell[bool](t, tb, "snapshot consistent", "value") || !cell[bool](t, tb, "failover business intact", "value") {
		t.Errorf("pipeline inconsistent:\n%s", tb)
	}
	if cell[time.Duration](t, tb, "failover recovery time", "value") <= 0 {
		t.Error("failover recovery free")
	}
	t.Log("\n" + tb.String())
}

func TestE9BatchSweepShape(t *testing.T) {
	tb, err := E9BatchSweep(1, []int{1, 16, 256}, 150)
	if err != nil {
		t.Fatal(err)
	}
	transfers := col[int64](t, tb, "link transfers")
	if transfers[0] <= transfers[2] {
		t.Errorf("transfers did not fall with batch size: %d -> %d", transfers[0], transfers[2])
	}
	t.Log("\n" + tb.String())
}

func TestE9CGScaleFlat(t *testing.T) {
	tb, err := E9CGScale(1, []int{2, 8, 32}, 20)
	if err != nil {
		t.Fatal(err)
	}
	volumes, modes, mean := col[int](t, tb, "volumes"), col[Mode](t, tb, "mode"), col[time.Duration](t, tb, "mean write")
	var cg2, cg32 time.Duration
	for i, m := range modes {
		if m == ModeADC && volumes[i] == 2 {
			cg2 = mean[i]
		}
		if m == ModeADC && volumes[i] == 32 {
			cg32 = mean[i]
		}
	}
	if cg32 > cg2*2 {
		t.Errorf("CG write latency grew with group size: %v -> %v", cg2, cg32)
	}
	t.Log("\n" + tb.String())
}

func TestE10FailbackDeltaBeatsFullCopy(t *testing.T) {
	tb, err := E10Failback(1, []int{10, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	outage, reverseOK := col[int](t, tb, "outage writes"), col[bool](t, tb, "reverse ok")
	delta, full := col[int](t, tb, "delta blocks"), col[int](t, tb, "full-copy blocks")
	resync := col[time.Duration](t, tb, "resync time")
	for i := range outage {
		if !reverseOK[i] {
			t.Errorf("reverse replication broken after %d-write outage", outage[i])
		}
		if delta[i] >= full[i] {
			t.Errorf("delta %d not smaller than full copy %d", delta[i], full[i])
		}
	}
	if !(delta[2] > delta[0]) {
		t.Errorf("delta did not grow with outage: %d -> %d", delta[0], delta[2])
	}
	if !(resync[2] > resync[0]) {
		t.Errorf("resync time flat: %v -> %v", resync[0], resync[2])
	}
	t.Log("\n" + tb.String())
}

func TestE9SkewInsensitive(t *testing.T) {
	tb, err := E9SkewSweep(1, []float64{-1, 1.2, 2.0}, 60)
	if err != nil {
		t.Fatal(err)
	}
	mean := col[time.Duration](t, tb, "mean order")
	if lo, hi := slices.Min(mean), slices.Max(mean); hi > lo*2 {
		t.Errorf("latency varied %v..%v across skews", lo, hi)
	}
	t.Log("\n" + tb.String())
}

func TestE12InterferenceOrderingAndFailover(t *testing.T) {
	// E12Interference itself fails if the victim placed no orders, or if
	// the link failure rerouted nothing or left the dead member carrying
	// more than a fifth of the survivor's bytes (at most its in-flight
	// batch).
	tb, err := E12Interference(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range e12Scenarios() {
		if !cell[bool](t, tb, sc.name, "consistent") {
			t.Errorf("%s: a tenant's consistency cut broke", sc.name)
		}
	}
	rpo := func(sc string) time.Duration { return cell[time.Duration](t, tb, sc, "victim mean RPO") }
	xfer := func(sc string) time.Duration { return cell[time.Duration](t, tb, sc, "mean drain xfer") }
	catchUp := func(sc string) time.Duration { return cell[time.Duration](t, tb, sc, "catch-up") }

	// Who wins: victim degradation is worst with no QoS on the shared
	// fabric, bounded under weighted classes, near-isolated on a
	// dedicated link.
	if rpo("no-qos") < 3*rpo("weighted") {
		t.Errorf("no-qos RPO %v not >> weighted %v", rpo("no-qos"), rpo("weighted"))
	}
	if xfer("no-qos") < 3*xfer("weighted") {
		t.Errorf("no-qos drain xfer %v not >> weighted %v", xfer("no-qos"), xfer("weighted"))
	}
	if rpo("weighted") <= rpo("dedicated") {
		t.Errorf("weighted RPO %v not above dedicated %v", rpo("weighted"), rpo("dedicated"))
	}
	if xfer("weighted") <= xfer("dedicated") {
		t.Errorf("weighted drain xfer %v not above dedicated %v", xfer("weighted"), xfer("dedicated"))
	}
	if rpo("dedicated") > 2*rpo("baseline")+5*time.Millisecond {
		t.Errorf("dedicated link not near-isolated: %v vs baseline %v", rpo("dedicated"), rpo("baseline"))
	}
	// Catch-up (drain) latency tells the same story end to end.
	if catchUp("no-qos") < 5*catchUp("weighted") {
		t.Errorf("no-qos catch-up %v not >> weighted %v", catchUp("no-qos"), catchUp("weighted"))
	}
	t.Log("\n" + tb.String())

	// The scheduled scenarios (passthrough fabrics have no dispatcher to
	// window) again with four transfers in flight per link: pipelined
	// dispatch only overlaps serialization with propagation, so every
	// tenant's consistency cut must survive it.
	var windowed []e12Scenario
	for _, sc := range e12Scenarios() {
		if len(sc.classes) > 0 {
			sc.window = 4
			windowed = append(windowed, sc)
		}
	}
	tb, err = e12Sweep(1, windowed, 40)
	if err != nil {
		t.Fatalf("at window 4: %v", err)
	}
	for _, sc := range windowed {
		if !cell[bool](t, tb, sc.name, "consistent") {
			t.Errorf("%s at window 4: a tenant's consistency cut broke", sc.name)
		}
	}
}

func TestE13ShardedThroughputScalesAndCutsHold(t *testing.T) {
	counts := []int{1, 2, 4}
	tb, err := E13ShardedThroughput(1, counts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	shards := col[int](t, tb, "shards")
	if !slices.Equal(shards, counts) {
		t.Fatalf("rows for shard counts %v, want %v", shards, counts)
	}
	rate, sp := col[mbPerSec](t, tb, "MB/s"), col[speedup](t, tb, "speedup")
	epochs, exact := col[int64](t, tb, "epoch cuts"), col[bool](t, tb, "consistent")
	cut, lost := col[int](t, tb, "failover cut"), col[int](t, tb, "lost")
	for i, n := range shards {
		// The mid-run failover must land mid-drain (some committed, some
		// lost) and the image must be an exact ack-order prefix at EVERY
		// shard count — the epoch barrier's whole point.
		if !exact[i] {
			t.Errorf("shards=%d: failover image not an exact prefix (cut=%d lost=%d)", n, cut[i], lost[i])
		}
		if cut[i] == 0 || lost[i] == 0 {
			t.Errorf("shards=%d: failover scenario degenerate (cut=%d lost=%d)", n, cut[i], lost[i])
		}
		if n > 1 && epochs[i] == 0 {
			t.Errorf("shards=%d: no epoch cuts declared", n)
		}
		if n == 1 && epochs[i] != 0 {
			t.Errorf("shards=1 ran the sharded engine (passthrough broken)")
		}
	}
	// Who wins: drain throughput grows with lane count, >= 2x at 4 shards.
	if rate[1] <= rate[0] {
		t.Errorf("2 shards (%v MB/s) not faster than 1 (%v MB/s)", rate[1], rate[0])
	}
	if sp[2] < 2 {
		t.Errorf("4-shard speedup = %v, want >= 2x", sp[2])
	}
	t.Log("\n" + tb.String())
}

// An empty sweep runs the default shard counts instead of indexing a row
// that does not exist.
func TestE13EmptySweepRunsDefaultCounts(t *testing.T) {
	tb, err := E13ShardedThroughput(1, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	if shards := col[int](t, tb, "shards"); !slices.Equal(shards, []int{1, 2, 4, 8}) {
		t.Fatalf("empty sweep ran shard counts %v, want [1 2 4 8]", shards)
	}
	if sp := col[speedup](t, tb, "speedup"); sp[0] != 1 {
		t.Errorf("1-shard row speedup = %v, want 1", sp[0])
	}
}

func TestE11FleetAllTenantsConsistentAfterMixedRun(t *testing.T) {
	tb, err := E11FleetScale(3, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := func(row string) int { return cell[int](t, tb, row, "value") }
	if n("tenant namespaces") != 24 || n("tenants verified consistent") != 24 || n("tenants collapsed") != 0 {
		t.Fatalf("fleet verdicts wrong:\n%s", tb)
	}
	if n("tenants failed over mid-run") == 0 || n("tenants running snapshot analytics") == 0 {
		t.Fatalf("mixed workload degenerate:\n%s", tb)
	}
	orders := cell[int64](t, tb, "orders placed (fleet)", "value")
	if orders == 0 || cell[int64](t, tb, "journal records applied at backup", "value") == 0 {
		t.Fatalf("fleet did no work:\n%s", tb)
	}
	// Failover tenants stop mid-run without catch-up, so the fleet-wide
	// order count must be below the no-disaster maximum.
	if orders >= int64(24*6) {
		t.Fatalf("failover tenants should cut order volume:\n%s", tb)
	}
}

// TestE16ObservabilityValidatesEveryTimeline runs the churning fleet with
// the telemetry plane on: every tenant (joins included) verifies consistent
// and the export returned is the one the table sizes (E16Observability
// itself fails on incomplete churn, overlapping spans, or a worst-RPO
// ranking that reads no non-zero probed timeline).
func TestE16ObservabilityValidatesEveryTimeline(t *testing.T) {
	tb, export, err := E16Observability(1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := func(row string) int { return cell[int](t, tb, row, "value") }
	if v, all := n("tenants verified consistent"), n("tenant namespaces (incl. joins)"); v != all {
		t.Errorf("verified %d of %d tenants", v, all)
	}
	if size := n("export size (bytes)"); size != len(export) {
		t.Errorf("export size row = %d, returned export %d bytes", size, len(export))
	}
	t.Log("\n" + tb.String())
}

func TestE14ElasticityJoinsLeavesAndReclaims(t *testing.T) {
	tb, err := E14Elasticity(1, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := func(row string) int { return cell[int](t, tb, row, "value") }
	d := func(row string) time.Duration { return cell[time.Duration](t, tb, row, "value") }
	joined := n("joined mid-run")
	if n("tenants verified consistent") != n("initial tenants")+joined || n("tenants collapsed") != 0 {
		t.Fatalf("verdicts wrong:\n%s", tb)
	}
	if joined != 2 || n("left mid-run (decommissioned)") != 1 {
		t.Fatalf("churn degenerate:\n%s", tb)
	}
	// Joins must reach Ready while the fleet serves load — and one of them
	// must have been in flight while a site failover ran.
	if d("join spec -> ready (max)") <= 0 {
		t.Fatalf("no join time-to-ready measured:\n%s", tb)
	}
	if !cell[bool](t, tb, "join raced a mid-run failover", "value") {
		t.Fatalf("no join raced a failover:\n%s", tb)
	}
	// The leave's reclamation invariant: zero residue on both arrays.
	if !cell[bool](t, tb, "leaver reclaim clean (free-list invariant)", "value") || n("residue entries after leaves") != 0 {
		t.Fatalf("decommission leaked:\n%s", tb)
	}
	// Victim disturbance stays bounded: churn may cost the bystanders some
	// RPO, but not an order of magnitude over the steady baseline.
	base, churn := d("victim max RPO, steady baseline"), d("victim max RPO, under churn")
	if base <= 0 {
		t.Fatalf("no baseline victim RPO sampled:\n%s", tb)
	}
	if churn > 10*base {
		t.Fatalf("churn disturbed victims: %v -> %v", base, churn)
	}
	t.Log("\n" + tb.String())
}

// TestE15ReshardLiveMigration pins the dynamic-resharding shape: the live
// 1->4 reshard at least doubles drain throughput, migrates only re-placed
// volumes' records, keeps the bystanders committing, survives a failover
// raced into the migration window with an exact epoch-boundary prefix, and
// an unchanged reconcile migrates nothing.
func TestE15ReshardLiveMigration(t *testing.T) {
	tb, err := E15Reshard(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	flag := func(row string) bool { return cell[bool](t, tb, row, "value") }
	n := func(row string) int64 { return cell[int64](t, tb, row, "value") }
	if sp := cell[speedup](t, tb, "post/pre speedup", "value"); sp < 2 {
		t.Errorf("post/pre speedup = %v, want >= 2x (pre=%v post=%v)", sp,
			cell[mbPerSec](t, tb, "drain MB/s before reshard", "value"), cell[mbPerSec](t, tb, "drain MB/s after reshard", "value"))
	}
	if cell[time.Duration](t, tb, "migration stall (declare -> settled)", "value") <= 0 {
		t.Error("migration stall not measured")
	}
	moved := n("volumes re-placed")
	if n("migration barrier epoch") == 0 || moved == 0 || n("pending records migrated") == 0 {
		t.Errorf("migration degenerate:\n%s", tb)
	}
	if moved >= e15Volumes {
		t.Errorf("all %d volumes moved; the stable hash must keep shard-0 residents in place", moved)
	}
	if !flag("unchanged reconcile migrated zero") {
		t.Error("unchanged reconcile migrated records or replaced the engine")
	}
	if n("bystander OLTP orders") == 0 {
		t.Error("bystander tenants placed no orders during the reshard")
	}
	if !flag("failover raced into open window") {
		t.Error("failover run never raced the open migration window")
	}
	cutLost := cell[pair](t, tb, "failover cut writes / lost", "value")
	if !flag("failover image exact ack-order prefix") {
		t.Errorf("mid-window failover image not an exact prefix: cut / lost = %v", cutLost)
	}
	if cutLost[0] == 0 || cutLost[1] == 0 {
		t.Errorf("failover scenario degenerate: cut / lost = %v", cutLost)
	}
	t.Log("\n" + tb.String())
}

func TestE18PipeFillScalesAndStaysInOrder(t *testing.T) {
	windows := []int{1, 4, 16}
	tb, err := E18PipeFill(1, windows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	window := col[int](t, tb, "window")
	if !slices.Equal(window, windows) {
		t.Fatalf("rows for windows %v, want %v", window, windows)
	}
	orderOK, exact := col[bool](t, tb, "order ok"), col[bool](t, tb, "consistent")
	cut, lost := col[int](t, tb, "failover cut"), col[int](t, tb, "lost")
	inFlight, delivered := col[int](t, tb, "in-flight@cut"), col[int64](t, tb, "delivered@cut")
	pipelined, maxInFlight := col[int64](t, tb, "pipelined"), col[int](t, tb, "max in-flight")
	for i, w := range window {
		if !orderOK[i] {
			t.Errorf("window=%d: per-link delivery order violated", w)
		}
		if !exact[i] {
			t.Errorf("window=%d: failover image not an exact prefix (cut=%d lost=%d)", w, cut[i], lost[i])
		}
		if w > 1 {
			// Every frame committed to the wire at the cut delivers during
			// the partition (at most one extra frame was mid-serialization);
			// nothing queued behind the cut sneaks out.
			if delivered[i] < int64(inFlight[i]) || delivered[i] > int64(inFlight[i])+1 {
				t.Errorf("window=%d: delivered %d during cut with %d in flight", w, delivered[i], inFlight[i])
			}
			if inFlight[i] < 2 {
				t.Errorf("window=%d: cut landed with only %d frames in flight — not mid-window", w, inFlight[i])
			}
			if pipelined[i] == 0 {
				t.Errorf("window=%d: no overlapped sends recorded", w)
			}
			if maxInFlight[i] > w {
				t.Errorf("window=%d: %d frames in flight exceeds the window", w, maxInFlight[i])
			}
		}
	}
	// The acceptance shape: near-linear gain with the window over the 50ms
	// geo hop, >= 5x by window=16 on the same schedule.
	sp := col[speedup](t, tb, "speedup")
	if sp[1] < 2.5 {
		t.Errorf("window=4 speedup = %v, want >= 2.5x", sp[1])
	}
	if sp[2] < 5 {
		t.Errorf("window=16 speedup = %v, want >= 5x", sp[2])
	}
	t.Log("\n" + tb.String())
}
