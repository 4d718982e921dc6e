package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/csiplugin"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/invariants"
	"repro/internal/netlink"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Result is one schedule execution's outcome. Two runs of the same
// schedule produce byte-identical LogText — that property is itself
// asserted by cmd/chaos in single-seed mode and by TestChaosReplay.
type Result struct {
	Schedule   *Schedule
	Log        []string
	Violations []invariants.Violation
	Checks     int           // invariant checkpoints executed
	Orders     int64         // orders placed across all tenants
	SimTime    time.Duration // virtual span of the run
	Err        error         // infrastructure failure (distinct from a violation)
}

// Failed reports whether the run found a violation or died on an error.
func (r *Result) Failed() bool { return len(r.Violations) > 0 || r.Err != nil }

// ReproLine is the one-line command that replays this run exactly.
func (r *Result) ReproLine() string {
	return fmt.Sprintf("go run ./cmd/chaos -steps %s -seed %d", r.Schedule.Steps, r.Schedule.Seed)
}

// LogText renders the full deterministic replay artifact: schedule header,
// per-fault driver log, and any violations.
func (r *Result) LogText() string {
	var b strings.Builder
	b.WriteString(r.Schedule.String())
	for _, l := range r.Log {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION %s\n", v)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "ERROR %v\n", r.Err)
	}
	return b.String()
}

// runTenant is the runner's live state for one tenant plan.
type runTenant struct {
	idx  int
	ns   string
	plan TenantPlan

	shop *workload.Shop

	alive      bool // provisioned and not yet left
	left       bool
	failedOver bool

	// workload loop state
	stop    bool
	running bool
	done    *sim.Event
	gen     int // workload restarts, for unique process names
	placed  int
}

type runner struct {
	sch *Schedule
	sys *core.System
	res *Result
	ten []*runTenant
}

// Run executes the schedule on a fresh system and returns the outcome.
// Everything inside is driven by the deterministic kernel: same schedule in,
// same Result out, byte for byte.
func Run(sch *Schedule) *Result {
	res, _ := run(sch, false)
	return res
}

// RunProfiled is Run with the simulated-time profile on
// (sim.Env.StartSimProfile), its samples labelled with the tenant a workload
// process serves. Recording moves no step, so the Result is Run's; one
// schedule records one profile.
func RunProfiled(sch *Schedule) (*Result, []sim.ProfileSample) { return run(sch, true) }

func run(sch *Schedule, profile bool) (*Result, []sim.ProfileSample) {
	res := &Result{Schedule: sch}
	links := make([]netlink.Config, sch.Links)
	for i := range links {
		links[i] = netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 8e6}
	}
	sys := core.NewSystem(core.Config{
		Seed: sch.Seed,
		// WindowPerLink 4 runs the sweep against the pipelined dispatchers,
		// so linkdown/linkloss bursts land while frames are genuinely in
		// flight (partition-with-in-flight-frames, retransmission under
		// pipelining) on every seed.
		Fabric:       fabric.Config{Links: links, WindowPerLink: 4},
		Storage:      storage.Config{IsolatedVolumes: true},
		VolumeBlocks: 4096,
	})
	if profile {
		sys.Env.StartSimProfile(workloadTenant)
	}
	r := &runner{sch: sch, sys: sys, res: res}
	for i, plan := range sch.Tenants {
		r.ten = append(r.ten, &runTenant{idx: i, ns: fmt.Sprintf("chaos-%02d", i), plan: plan})
	}

	sys.Env.Process("chaos-driver", r.drive)
	sys.Env.Run(0)
	// Quiesce so repeated runs (sweeps, shrink replays) do not accumulate
	// parked simulation processes.
	sys.Stop()
	sys.Env.Run(0)
	res.SimTime = sys.Env.Now()
	for _, t := range r.ten {
		res.Orders += int64(t.placed)
	}
	// Leaked watches are only checkable after the controllers stopped.
	res.Violations = append(res.Violations,
		invariants.CheckNoWatches("main", sys.Main.API)...)
	res.Violations = append(res.Violations,
		invariants.CheckNoWatches("backup", sys.Backup.API)...)
	return res, sys.Env.SimProfile()
}

// workloadTenant names the tenant of a workload process ("wl:<ns>#<gen>",
// startWorkload), "" for any other.
func workloadTenant(process string) string {
	if rest, ok := strings.CutPrefix(process, "wl:"); ok {
		ns, _, _ := strings.Cut(rest, "#")
		return ns
	}
	return ""
}

func (r *runner) logf(p *sim.Proc, format string, args ...any) {
	r.res.Log = append(r.res.Log, fmt.Sprintf("[%10v] ", p.Now())+fmt.Sprintf(format, args...))
}

func (r *runner) fail(p *sim.Proc, err error) {
	if r.res.Err == nil {
		r.res.Err = err
	}
	r.logf(p, "ERROR %v", err)
}

func (r *runner) violations(p *sim.Proc, vs []invariants.Violation) {
	for _, v := range vs {
		r.logf(p, "violation %s", v)
	}
	r.res.Violations = append(r.res.Violations, vs...)
}

// drive is the single serialized chaos process: provision the initial
// roster, fire each fault at its scheduled time, run the invariant
// checkpoint after its recovery point, then drain and decommission.
func (r *runner) drive(p *sim.Proc) {
	for _, t := range r.ten {
		if t.plan.JoinAt == 0 {
			if err := r.provision(p, t); err != nil {
				r.fail(p, fmt.Errorf("provision %s: %w", t.ns, err))
				return
			}
		}
	}
	for _, t := range r.ten {
		if t.alive {
			r.startWorkload(t)
		}
	}
	r.logf(p, "roster up: %d tenants, %d links", len(r.sch.Tenants), r.sch.Links)

	for _, f := range r.sch.Faults {
		if f.At > p.Now() {
			p.Sleep(f.At - p.Now())
		}
		if r.res.Err != nil {
			return
		}
		r.fire(p, f)
		r.checkpoint(p, fmt.Sprintf("after #%02d %s", f.Seq, f.Kind))
		if r.res.Err != nil {
			return
		}
	}

	r.finish(p)
}

func (r *runner) provision(p *sim.Proc, t *runTenant) error {
	bp, err := r.sys.ProvisionTenant(p, platform.TenantSpec{
		Namespace:     t.ns,
		PVCNames:      []string{"sales", "stock"},
		Backup:        true,
		JournalShards: t.plan.Shards,
		Profile:       "oltp-external", // chaos attaches its own seeded shop
	})
	if err != nil {
		return err
	}
	t.alive = true
	// Think time and the read mix are paced by the runner's own order loop
	// (startWorkload), so the shop only needs its item-selection seed.
	t.shop = workload.NewShop(r.sys.Env, bp.Sales, bp.Stock, workload.Config{
		Seed: r.sch.Seed + int64(t.idx)*7919,
	})
	return nil
}

// startWorkload launches (or relaunches) the tenant's order loop. The loop
// checks the stop flag at order boundaries only, so a stop always leaves
// the shop's commit orders at a transaction boundary.
func (r *runner) startWorkload(t *runTenant) {
	if t.running || t.placed >= t.plan.Orders || !t.alive || t.failedOver {
		return
	}
	t.gen++
	t.stop = false
	t.running = true
	done := r.sys.Env.NewEvent()
	t.done = done
	r.sys.Env.Process(fmt.Sprintf("wl:%s#%d", t.ns, t.gen), func(p *sim.Proc) {
		for !t.stop && t.placed < t.plan.Orders {
			if _, err := t.shop.PlaceOrder(p); err != nil {
				r.fail(p, fmt.Errorf("workload %s: %w", t.ns, err))
				break
			}
			t.placed++
			if t.placed%4 == 0 && t.plan.ReadFraction > 0 {
				if err := t.shop.CheckOrder(p); err != nil {
					r.fail(p, fmt.Errorf("workload read %s: %w", t.ns, err))
					break
				}
			}
			if t.plan.ThinkTime > 0 {
				p.Sleep(t.plan.ThinkTime)
			}
		}
		t.running = false
		done.Trigger()
	})
}

// stopWorkload halts the tenant's order loop at the next order boundary and
// waits for it to park.
func (r *runner) stopWorkload(p *sim.Proc, t *runTenant) {
	t.stop = true
	if t.done != nil {
		p.Wait(t.done)
	}
}

func (r *runner) fire(p *sim.Proc, f Fault) {
	switch f.Kind {
	case FaultLinkDown:
		r.linkDown(p, f)
	case FaultLinkLoss:
		r.linkLoss(p, f)
	case FaultSiteCut:
		r.siteCut(p, f)
	case FaultFailover:
		r.failover(p, f)
	case FaultFailback:
		r.failback(p, f)
	case FaultJoin:
		r.join(p, f)
	case FaultLeave:
		r.leave(p, f)
	case FaultReshard:
		r.reshard(p, f)
	case FaultSqueeze:
		r.squeeze(p, f)
	case FaultPlant:
		r.plant(p, f)
	default:
		r.logf(p, "fault #%02d: unknown kind %v, skipped", f.Seq, f.Kind)
	}
}

// target resolves a tenant-level fault's target, logging the skip when the
// tenant is not in a state the fault applies to (its join was shrunk away,
// it already left, it failed over).
func (r *runner) target(p *sim.Proc, f Fault) *runTenant {
	if f.Tenant < 0 || f.Tenant >= len(r.ten) {
		r.logf(p, "fault #%02d %s: no such tenant %d, skipped", f.Seq, f.Kind, f.Tenant)
		return nil
	}
	t := r.ten[f.Tenant]
	if !t.alive || t.left || t.failedOver {
		r.logf(p, "fault #%02d %s: tenant %s not eligible (alive=%v left=%v failedover=%v), skipped",
			f.Seq, f.Kind, t.ns, t.alive, t.left, t.failedOver)
		return nil
	}
	return t
}

func (r *runner) linkDown(p *sim.Proc, f Fault) {
	links := r.sys.Fabric.Forward.Links()
	l := links[f.Link%len(links)]
	r.logf(p, "fault #%02d linkdown: partition member link %d for %v", f.Seq, f.Link%len(links), f.Dur)
	l.Partition()
	p.Sleep(f.Dur)
	l.Heal()
	r.logf(p, "fault #%02d linkdown: healed", f.Seq)
}

func (r *runner) linkLoss(p *sim.Proc, f Fault) {
	links := r.sys.Fabric.Forward.Links()
	l := links[f.Link%len(links)]
	before := l.Retransmits()
	r.logf(p, "fault #%02d linkloss: degrade member link %d loss=%.2f jitter=%v for %v",
		f.Seq, f.Link%len(links), f.Loss, f.Jitter, f.Dur)
	l.SetFault(f.Loss, f.Jitter)
	p.Sleep(f.Dur)
	l.SetFault(0, 0)
	r.logf(p, "fault #%02d linkloss: cleared (%d retransmits)", f.Seq, l.Retransmits()-before)
}

func (r *runner) siteCut(p *sim.Proc, f Fault) {
	r.logf(p, "fault #%02d sitecut: partition all links for %v", f.Seq, f.Dur)
	for _, l := range r.sys.Fabric.Forward.Links() {
		l.Partition()
	}
	for _, l := range r.sys.Fabric.Reverse.Links() {
		l.Partition()
	}
	p.Sleep(f.Dur)
	for _, l := range r.sys.Fabric.Forward.Links() {
		l.Heal()
	}
	for _, l := range r.sys.Fabric.Reverse.Links() {
		l.Heal()
	}
	r.logf(p, "fault #%02d sitecut: healed", f.Seq)
}

func (r *runner) failover(p *sim.Proc, f Fault) {
	t := r.target(p, f)
	if t == nil {
		return
	}
	// A disaster takes the workload with it: stop the loop first so the
	// shop's commit orders are the complete ground truth for the verify.
	r.stopWorkload(p, t)
	fo, err := r.sys.Failover(p, t.ns)
	if err != nil {
		r.fail(p, fmt.Errorf("failover %s: %w", t.ns, err))
		return
	}
	t.failedOver = true
	rep := consistency.Verify(fo.Sales, fo.Stock, t.shop.SalesCommitOrder(), t.shop.StockCommitOrder())
	r.violations(p, invariants.CheckConsistentCut(t.ns, rep))
	r.logf(p, "fault #%02d failover %s: recovery=%v recovered=%d/%d sales txns lost=%d",
		f.Seq, t.ns, fo.RecoveryTime, rep.SalesTxns, len(t.shop.SalesCommitOrder()), rep.LostSalesTxns)
}

func (r *runner) failback(p *sim.Proc, f Fault) {
	fb, err := r.sys.Failback(p)
	switch {
	case errors.Is(err, core.ErrNothingToFailBack):
		r.logf(p, "fault #%02d failback: precondition absent (%v)", f.Seq, err)
	case err != nil:
		r.fail(p, fmt.Errorf("failback: %w", err))
	default:
		r.logf(p, "fault #%02d failback: %d reverse groups, resync %v (delta %d / full %d blocks)",
			f.Seq, len(fb.Reverse), fb.ResyncTime, fb.DeltaBlocks, fb.FullBlocks)
		// A failed-over tenant's workload is stopped, so once a reverse
		// group has drained, main must read as the backup does.
		for _, rg := range fb.Reverse {
			rg.CatchUp(p)
			r.violations(p, invariants.CheckRoundTrip(rg.Name(), rg, r.sys.Backup.Array, r.sys.Main.Array))
		}
	}
}

func (r *runner) join(p *sim.Proc, f Fault) {
	if f.Tenant < 0 || f.Tenant >= len(r.ten) {
		r.logf(p, "fault #%02d join: no such tenant %d, skipped", f.Seq, f.Tenant)
		return
	}
	t := r.ten[f.Tenant]
	if t.alive || t.left {
		r.logf(p, "fault #%02d join: tenant %s already joined, skipped", f.Seq, t.ns)
		return
	}
	start := p.Now()
	if err := r.provision(p, t); err != nil {
		r.fail(p, fmt.Errorf("join %s: %w", t.ns, err))
		return
	}
	r.startWorkload(t)
	r.logf(p, "fault #%02d join %s: ready in %v", f.Seq, t.ns, p.Now()-start)
}

func (r *runner) leave(p *sim.Proc, f Fault) {
	t := r.target(p, f)
	if t == nil {
		return
	}
	r.stopWorkload(p, t)
	if r.retire(p, t, fmt.Sprintf("leave%02d", f.Seq)) {
		r.logf(p, "fault #%02d leave %s: decommissioned after %d orders", f.Seq, t.ns, t.placed)
	}
}

// retire drains a stopped tenant, proves its backup complete and consistent
// (verified under tag, which also names the step in a failure),
// decommissions it and holds the zero-residue invariant. It reports false
// when it failed the run.
func (r *runner) retire(p *sim.Proc, t *runTenant, tag string) bool {
	r.sys.CatchUp(p, t.ns)
	rep, err := r.verifyTenant(p, t, tag)
	if err != nil {
		r.fail(p, fmt.Errorf("%s verify %s: %w", tag, t.ns, err))
		return false
	}
	r.violations(p, invariants.CheckConsistentCut(t.ns, rep))
	if err := r.sys.DecommissionTenant(p, t.ns); err != nil {
		r.fail(p, fmt.Errorf("%s decommission %s: %w", tag, t.ns, err))
		return false
	}
	t.left, t.alive = true, false
	r.violations(p, invariants.CheckZeroResidue(t.ns, r.sys.TenantResidue(t.ns)))
	return true
}

func (r *runner) reshard(p *sim.Proc, f Fault) {
	t := r.target(p, f)
	if t == nil {
		return
	}
	if err := r.sys.UpdateTenantSpec(p, t.ns, func(s *platform.TenantSpec) {
		s.JournalShards = f.Shards
	}); err != nil {
		r.fail(p, fmt.Errorf("reshard %s: %w", t.ns, err))
		return
	}
	start := p.Now()
	err := r.sys.WaitTenantCondition(p, t.ns, core.CondResharded(f.Shards), 60*time.Second)
	switch {
	case errors.Is(err, core.ErrNotReshardable):
		r.logf(p, "fault #%02d reshard %s: not reshardable (%v), skipped", f.Seq, t.ns, err)
	case err != nil:
		r.fail(p, fmt.Errorf("reshard %s to %d: %w", t.ns, f.Shards, err))
	default:
		r.logf(p, "fault #%02d reshard %s -> %d lanes in %v", f.Seq, t.ns, f.Shards, p.Now()-start)
	}
}

func (r *runner) squeeze(p *sim.Proc, f Fault) {
	t := r.target(p, f)
	if t == nil {
		return
	}
	gs := r.sys.Groups(t.ns)
	if len(gs) != 1 {
		r.logf(p, "fault #%02d squeeze %s: %d engines, skipped", f.Seq, t.ns, len(gs))
		return
	}
	r.logf(p, "fault #%02d squeeze %s: capacity -> %dB for %v", f.Seq, t.ns, f.Bytes, f.Dur)
	eng := gs[0]
	sj := eng.Journal()
	sj.SetCapacityPerShard(f.Bytes)
	p.Sleep(f.Dur)
	r.stopWorkload(p, t)
	if sj.Overflowed() {
		// The group froze: the fail-closed invariant must hold NOW.
		r.violations(p, invariants.CheckFailClosed(t.ns, r.sys.Main.Array, sj))
		sj.SetCapacityPerShard(0)
		if err := eng.Resync(p, r.sys.Main.Array); err != nil {
			r.fail(p, fmt.Errorf("squeeze resync %s: %w", t.ns, err))
			return
		}
		r.logf(p, "fault #%02d squeeze %s: overflowed (x%d), recovered by delta resync", f.Seq, t.ns, sj.Overflows())
	} else {
		sj.SetCapacityPerShard(0)
		r.logf(p, "fault #%02d squeeze %s: backlog stayed under capacity", f.Seq, t.ns)
	}
	// Recovery must be lossless: the workload was quiesced, capacity is
	// restored, so after a catch-up the backup holds every commit.
	r.sys.CatchUp(p, t.ns)
	rep, err := r.verifyTenant(p, t, fmt.Sprintf("squeeze%02d", f.Seq))
	if err != nil {
		r.fail(p, fmt.Errorf("squeeze verify %s: %w", t.ns, err))
		return
	}
	r.violations(p, invariants.CheckConsistentCut(t.ns, rep))
	if rep.LostSalesTxns != 0 || rep.LostStockTxns != 0 {
		r.violations(p, []invariants.Violation{{
			Invariant: "fail-closed", Tenant: t.ns,
			Detail: fmt.Sprintf("squeeze recovery lost %d sales / %d stock txns", rep.LostSalesTxns, rep.LostStockTxns),
		}})
	}
	r.startWorkload(t)
}

// plant is the test-only violation: corrupt the backup sales volume after a
// catch-up, so the next consistency cut MUST collapse (stock commits whose
// sales rows were destroyed). It proves the detection and shrinking
// pipeline end to end.
func (r *runner) plant(p *sim.Proc, f Fault) {
	t := r.target(p, f)
	if t == nil {
		return
	}
	r.stopWorkload(p, t)
	r.sys.CatchUp(p, t.ns)
	v, err := r.sys.Backup.Array.Volume(csiplugin.VolumeIDForClaim(t.ns, "sales"))
	if err != nil {
		r.fail(p, fmt.Errorf("plant %s: %w", t.ns, err))
		return
	}
	zero := make([]byte, v.BlockSize())
	wiped := 0
	for _, b := range v.WrittenBlocks() {
		if b == 0 {
			continue // keep the DB header so the view still opens
		}
		if err := v.Poke(b, zero); err != nil {
			r.fail(p, fmt.Errorf("plant %s: %w", t.ns, err))
			return
		}
		wiped++
	}
	r.logf(p, "fault #%02d plant %s: wiped %d backup sales blocks", f.Seq, t.ns, wiped)
}

// verifyTenant snapshots the tenant's backup volumes, opens crash-recovered
// analytics views on the snapshot, and verifies them against the shop's
// commit orders. The snapshot group is deleted afterwards so the check
// leaves no residue behind.
func (r *runner) verifyTenant(p *sim.Proc, t *runTenant, tag string) (consistency.Report, error) {
	name := t.ns + "-" + tag
	group, err := r.sys.SnapshotBackup(t.ns, name)
	if err != nil {
		return consistency.Report{}, fmt.Errorf("snapshot: %w", err)
	}
	defer func() {
		if derr := r.sys.Backup.Array.DeleteSnapshotGroup(name); derr != nil {
			r.fail(p, fmt.Errorf("snapshot cleanup %s: %w", name, derr))
		}
	}()
	sales, err := r.openSide(p, t.ns, group, "sales")
	if err != nil {
		return consistency.Report{}, err
	}
	stock, err := r.openSide(p, t.ns, group, "stock")
	if err != nil {
		return consistency.Report{}, err
	}
	return consistency.Verify(sales, stock, t.shop.SalesCommitOrder(), t.shop.StockCommitOrder()), nil
}

// openSide opens one crash-recovered view of the snapshot. A backup volume
// whose DB header has not drained yet (a fresh joiner mid-initial-drain) is
// a legitimate empty image, not an error: it reads as zero commits, and the
// consistency checker will still flag the cut if the OTHER side has commits
// that would make emptiness inconsistent.
func (r *runner) openSide(p *sim.Proc, ns string, group *storage.SnapshotGroup, claim string) (consistency.CommitSet, error) {
	snap := group.Snapshot(csiplugin.VolumeIDForClaim(ns, claim))
	if snap == nil {
		return nil, fmt.Errorf("snapshot group %s missing %s", group.Name(), claim)
	}
	v, err := db.OpenView(p, ns+"/"+claim+"@chk", snap, r.sys.Cfg.DB)
	if errors.Is(err, db.ErrNotFormatted) {
		return emptySet{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("view %s/%s: %w", ns, claim, err)
	}
	return v, nil
}

// emptySet is the zero-commit CommitSet an unformatted backup reads as.
type emptySet struct{}

func (emptySet) CommittedTxns() []uint64 { return nil }

// checkpoint asserts every invariant that must hold at a recovery point:
// per-tenant fail-closed journal state, epoch boundaries, an any-instant
// consistent cut on every live tenant's backup, zero residue for everyone
// who left, and no orphan replication engines.
func (r *runner) checkpoint(p *sim.Proc, label string) {
	r.res.Checks++
	before := len(r.res.Violations)
	for _, t := range r.ten {
		if !t.alive || t.failedOver {
			continue
		}
		for _, g := range r.sys.Groups(t.ns) {
			r.violations(p, invariants.CheckEpochBoundary(t.ns, g))
			r.violations(p, invariants.CheckFailClosed(t.ns, r.sys.Main.Array, g.Journal()))
		}
		rep, err := r.verifyTenant(p, t, fmt.Sprintf("chk%03d", r.res.Checks))
		if err != nil {
			r.fail(p, fmt.Errorf("checkpoint %q %s: %w", label, t.ns, err))
			return
		}
		r.violations(p, invariants.CheckConsistentCut(t.ns, rep))
	}
	for _, t := range r.ten {
		if t.left {
			r.violations(p, invariants.CheckZeroResidue(t.ns, r.sys.TenantResidue(t.ns)))
		}
	}
	r.violations(p, r.orphanCheck())
	r.logf(p, "checkpoint %q: %d new violations", label, len(r.res.Violations)-before)
}

func (r *runner) orphanCheck() []invariants.Violation {
	live := func(ns string) bool {
		for _, t := range r.ten {
			if t.ns == ns {
				return t.alive || t.failedOver
			}
		}
		return false
	}
	return invariants.CheckNoOrphanGroups(r.sys.Main.Engines.Sorted(), r.sys.Replication.NamespaceOf, live)
}

// finish drains and decommissions every remaining tenant, then runs the
// final global checks. Failed-over tenants stay: their groups legitimately
// outlive the workload (the DR story), so they are only orphan-checked.
func (r *runner) finish(p *sim.Proc) {
	for _, t := range r.ten {
		if t.alive && !t.failedOver {
			r.stopWorkload(p, t)
		}
	}
	for _, t := range r.ten {
		if t.alive && !t.failedOver && !r.retire(p, t, "final") {
			return
		}
	}
	r.violations(p, r.orphanCheck())
	total := 0
	for _, t := range r.ten {
		total += t.placed
	}
	r.logf(p, "done: %d orders, %d checkpoints, %d violations", total, r.res.Checks, len(r.res.Violations))
}
