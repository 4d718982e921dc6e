// Package fleet scales the two-site demonstration system of internal/core
// from one business process to many tenant namespaces sharing one simulated
// infrastructure: one main array, one backup array, one inter-site link, one
// operator. Each tenant is declared as a TenantSpec and provisioned by the
// tenant controller (core.System.ProvisionTenant): its own namespace, its
// own sales/stock databases, its own shared-journal consistency group, its
// own ADC drain. The fleet then runs a mixed workload — OLTP commits on
// every tenant, snapshot analytics on a subset, a mid-run site failover for
// another subset — and verifies per-tenant cross-volume consistency, which
// is the paper's central claim pushed to production-fleet scale (E11).
//
// On top of the steady roster the fleet runs churn (E14 elasticity): Joins
// provision additional tenants mid-run — initial copy under everyone else's
// OLTP load — and Leaves decommission roster tenants mid-run, verifying
// their volumes and journal shards return to the array free lists while the
// survivors' consistency cuts stay untouched. Reshards (E15 dynamic
// resharding) re-declare a tenant's JournalShards mid-run, driving a live
// epoch-barrier shard migration under everyone's load.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config tunes a fleet run. Zero values take scale-appropriate defaults.
type Config struct {
	// Tenants is the number of tenant namespaces (default 16).
	Tenants int
	// OrdersPerTenant is the OLTP load per tenant (default 10). Half is
	// placed before the mid-run events, half after.
	OrdersPerTenant int
	// Workload tunes each tenant's shop (seed is offset per tenant).
	Workload workload.Config
	// JournalShards, when > 1, shards every tenant's consistency-group
	// journal across that many drain lanes (each tenant's
	// TenantSpec.JournalShards). 0 or 1 is the single shared journal.
	JournalShards int
	// Joins schedules extra tenants provisioned mid-run: each join submits
	// a TenantSpec at its After time and lives a full tenant life from
	// there. Joined tenants are appended to the roster after the initial
	// set, named in index order.
	Joins []JoinSpec
	// Leaves schedules initial-roster tenants that decommission mid-run
	// after completing (and verifying) their workload. Leaving tenants are
	// excluded from the failover/analytics roles.
	Leaves []LeaveSpec
	// Reshards schedules mid-run shard-count changes: at each spec's After
	// time the target tenant's JournalShards is re-declared and the live
	// reshard (epoch-barrier migration, lanes reconfigured under drain)
	// runs while the tenant — and the rest of the fleet — keeps serving
	// OLTP load. Targets that have already left or failed over are skipped.
	Reshards []ReshardSpec
	// Workers is ignored: the kernel has one sequential scheduler. It stays
	// only because the benchmark harness still sets it, and goes when that
	// harness next changes.
	Workers int
	// StartBarrier, when true, holds every initial-roster tenant at a
	// barrier after provisioning: OLTP begins only once the whole roster is
	// Ready, at one shared instant — the classic load-then-measure benchmark
	// phase split, which keeps provisioning skew out of the measured phase.
	// Join tenants arrive mid-run and skip the gate.
	StartBarrier bool
	// System configures the shared two-site system (including the
	// inter-site fabric's member links and QoS classes).
	System core.Config
}

// JoinSpec is one mid-run tenant join.
type JoinSpec struct {
	// After is the virtual time the spec is submitted.
	After time.Duration
}

// LeaveSpec is one mid-run tenant leave.
type LeaveSpec struct {
	// Tenant is the initial-roster index of the tenant that leaves.
	Tenant int
	// After is the earliest virtual time the leave may begin; the tenant
	// finishes and verifies its workload first, then waits for this.
	After time.Duration
}

// ReshardSpec is one mid-run shard-count change.
type ReshardSpec struct {
	// Tenant is the roster index (initial or joined) to reshard.
	Tenant int
	// After is the virtual time the new shard count is declared.
	After time.Duration
	// Shards is the new drain-lane count (>= 1).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 16
	}
	if c.OrdersPerTenant <= 0 {
		c.OrdersPerTenant = 10
	}
	return c
}

const (
	// roleFraction is the share of the initial roster hit by the mid-run site
	// failover, and the share that runs snapshot analytics mid-run (at least
	// one tenant each).
	roleFraction = 0.25
	// readyTimeout bounds each tenant's wait for Ready, for zero residue and
	// for a reshard to settle. A fleet provisions its whole roster at once,
	// so it sits far above core's single-tenant default.
	readyTimeout = 5 * time.Minute
	// horizon bounds the simulation in virtual time.
	horizon = 4 * time.Hour
)

// Tenant is one namespace's state and verdicts.
type Tenant struct {
	Namespace string
	Index     int
	BP        *core.BusinessProcess

	// Roles in the mixed workload.
	Failover   bool // hit by the mid-run site failover
	Analytics  bool // runs snapshot analytics mid-run
	Join       bool // provisioned mid-run (E14 elasticity)
	Leave      bool // decommissions mid-run (E14 elasticity)
	JoinAfter  time.Duration
	LeaveAfter time.Duration

	// Outcomes.
	TimeToReady     time.Duration // spec submitted -> tenant Ready
	OrdersPlaced    int64
	AnalyticsOrders int  // orders the mid-run snapshot analytics saw (-1 = none ran)
	Verified        bool // final consistency verification ran and passed
	Report          consistency.Report
	RecoveryTime    time.Duration // failover tenants: simulated downtime
	JoinedAt        time.Duration // join tenants: when Ready was reached
	FailoverAt      time.Duration // failover tenants: when the site was cut
	Left            bool          // leave tenants: decommission completed
	LeftAt          time.Duration // leave tenants: when reclamation finished
	ReclaimOK       bool          // leave tenants: zero residue after leaving
	Resharded       bool          // a scheduled mid-run reshard settled
	ReshardTo       int           // lane count the reshard declared
	ReshardTime     time.Duration // declare -> migration settled
	ReshardErr      error         // reshard skipped/failed (tenant gone, failed over)
	Err             error

	// fabricCaptured marks that captureFabric already ran (leavers capture
	// before their paths are reclaimed; Run must not overwrite that).
	fabricCaptured bool

	// FabricBytes is the ADC traffic this tenant moved through the shared
	// inter-site fabric (zero when the tenant never drained).
	FabricBytes int64
}

// Fleet is a provisioned multi-tenant system.
type Fleet struct {
	Sys     *core.System
	Cfg     Config
	Tenants []*Tenant

	// Start-barrier state (Config.StartBarrier): gate fires when gateLeft
	// initial-roster tenants have arrived.
	gate     *sim.Event
	gateLeft int
}

// New builds the shared system and the tenant roster — the Config's scalar
// fields are the initial spec set, Joins append churn tenants after it.
// Tenant roles are assigned round-robin so failover and analytics tenants
// interleave with plain OLTP tenants deterministically; leaving tenants
// take no other role.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	cfg.System.ProvisionTimeout = max(cfg.System.ProvisionTimeout, readyTimeout)
	// Fleet tenants are independent services: each volume gets its own
	// single-slot service queue, the multi-tenant array model, instead of
	// one controller every tenant queues behind.
	cfg.System.Storage.IsolatedVolumes = true
	f := &Fleet{Sys: core.NewSystem(cfg.System), Cfg: cfg}
	leaves := make(map[int]LeaveSpec, len(cfg.Leaves))
	for _, l := range cfg.Leaves {
		if l.Tenant >= 0 && l.Tenant < cfg.Tenants {
			leaves[l.Tenant] = l
		}
	}
	for i := 0; i < cfg.Tenants; i++ {
		t := &Tenant{
			Namespace:       fmt.Sprintf("tenant-%03d", i),
			Index:           i,
			AnalyticsOrders: -1,
		}
		if l, ok := leaves[i]; ok {
			t.Leave, t.LeaveAfter = true, l.After
		}
		f.Tenants = append(f.Tenants, t)
	}
	// Interleave roles: failover tenants from the front, analytics from the
	// back, so both mix with plain tenants in namespace order. Leavers are
	// skipped — a decommission must reclaim a cleanly-drained group, and
	// analytics snapshots are verified before leaving anyway.
	nRole := max(1, int(float64(cfg.Tenants)*roleFraction))
	for i, assigned := 0, 0; i < cfg.Tenants && assigned < nRole; i++ {
		if t := f.Tenants[i]; !t.Leave {
			t.Failover = true
			assigned++
		}
	}
	for i, assigned := cfg.Tenants-1, 0; i >= 0 && assigned < nRole; i-- {
		if t := f.Tenants[i]; !t.Leave && !t.Failover {
			t.Analytics = true
			assigned++
		}
	}
	for j, js := range cfg.Joins {
		idx := cfg.Tenants + j
		f.Tenants = append(f.Tenants, &Tenant{
			Namespace:       fmt.Sprintf("tenant-%03d", idx),
			Index:           idx,
			AnalyticsOrders: -1,
			Join:            true,
			JoinAfter:       js.After,
		})
	}
	return f
}

// gateArrive counts one initial-roster tenant reaching (or, on a provision
// failure, abandoning) the start barrier. The last arrival releases every
// waiter at the current instant; join tenants bypass the gate entirely.
func (f *Fleet) gateArrive(p *sim.Proc, t *Tenant, wait bool) {
	if f.gate == nil || t.Join {
		return
	}
	f.gateLeft--
	if f.gateLeft == 0 {
		f.gate.Trigger()
	} else if wait {
		p.Wait(f.gate)
	}
}

// Run provisions every tenant and drives the mixed workload to completion,
// returning the first tenant error (each tenant's own error is also kept on
// the Tenant). It owns the environment: callers must not call Env.Run.
func (f *Fleet) Run() error {
	if f.Cfg.StartBarrier {
		f.gate = f.Sys.Env.NewEvent()
		for _, t := range f.Tenants {
			if !t.Join {
				f.gateLeft++
			}
		}
	}
	for _, t := range f.Tenants {
		t := t
		f.Sys.Env.Process("tenant:"+t.Namespace, func(p *sim.Proc) { t.Err = f.runTenant(p, t) })
	}
	for _, rs := range f.Cfg.Reshards {
		rs := rs
		if rs.Tenant < 0 || rs.Tenant >= len(f.Tenants) || rs.Shards < 1 {
			continue
		}
		t := f.Tenants[rs.Tenant]
		f.Sys.Env.Process("reshard:"+t.Namespace, func(p *sim.Proc) {
			if rs.After > p.Now() {
				p.Sleep(rs.After - p.Now())
			}
			// A tenant that already left or lost its site has no drain to
			// reshape; record the skip instead of failing the fleet.
			if t.Left || (t.Failover && t.FailoverAt > 0 && t.FailoverAt <= p.Now()) {
				t.ReshardErr = fmt.Errorf("fleet: reshard skipped: %s no longer draining", t.Namespace)
				return
			}
			start := p.Now()
			err := f.Sys.UpdateTenantSpec(p, t.Namespace, func(s *platform.TenantSpec) {
				s.JournalShards = rs.Shards
			})
			if err == nil {
				err = f.Sys.WaitTenantCondition(p, t.Namespace, core.CondResharded(rs.Shards), readyTimeout)
			}
			if err != nil {
				t.ReshardErr = err
				return
			}
			t.Resharded, t.ReshardTo = true, rs.Shards
			t.ReshardTime = p.Now() - start
		})
	}
	f.Sys.Env.Run(horizon)
	if f.Sys.Env.Idle() {
		// Completed run: quiesce controllers, drains, and dispatchers so a
		// discarded fleet leaves no parked simulation goroutines behind
		// (bench iterations would otherwise accumulate them). A run cut off
		// by the horizon skips this — its pending events would replay.
		f.Sys.Stop()
		f.Sys.Env.Run(0)
	}
	for _, t := range f.Tenants {
		if !t.fabricCaptured {
			f.captureFabric(t)
		}
		if t.Err != nil {
			return fmt.Errorf("fleet: %s: %w", t.Namespace, t.Err)
		}
		if !t.Verified {
			return fmt.Errorf("fleet: %s: workload never completed (simulation horizon hit?)", t.Namespace)
		}
	}
	return nil
}

// captureFabric sums the bytes the tenant moved through the shared
// inter-site fabric. Leavers capture before their paths are reclaimed;
// everyone else after the run.
func (f *Fleet) captureFabric(t *Tenant) {
	t.fabricCaptured = true
	if tp := f.Sys.TenantPath(t.Namespace); tp != nil {
		t.FabricBytes = tp.Bytes()
	}
	// Sharded tenants drain over per-lane paths instead; their bytes sum.
	for _, lp := range f.Sys.TenantLanePaths(t.Namespace) {
		if lp != nil {
			t.FabricBytes += lp.Bytes()
		}
	}
}

// runTenant is one tenant's full life: provision declaratively (join
// tenants first wait for their scheduled time), OLTP with mid-run analytics
// or failover, a final consistency verification — and, for leavers, a full
// decommission with the reclamation invariant checked.
func (f *Fleet) runTenant(p *sim.Proc, t *Tenant) error {
	if t.Join && t.JoinAfter > p.Now() {
		p.Sleep(t.JoinAfter - p.Now())
	}
	start := p.Now()
	var provSpan telemetry.Span
	if tel := f.Sys.Telemetry; tel != nil {
		provSpan = tel.StartSpan("lifecycle", "provision", t.Namespace)
	}
	bp, err := f.Sys.ProvisionTenant(p, platform.TenantSpec{
		Namespace:     t.Namespace,
		PVCNames:      []string{"sales", "stock"},
		Backup:        true,
		JournalShards: f.Cfg.JournalShards,
		Profile:       "oltp-external", // the fleet attaches its own seeded shop
	})
	provSpan.End()
	if err != nil {
		f.gateArrive(p, t, false) // don't strand the rest of the roster
		return fmt.Errorf("provision: %w", err)
	}
	t.TimeToReady = p.Now() - start
	t.BP = bp
	if t.Join {
		t.JoinedAt = p.Now()
	}
	wcfg := f.Cfg.Workload
	wcfg.Seed = f.Cfg.System.Seed + int64(t.Index)*7919
	bp.Shop = workload.NewShop(f.Sys.Env, bp.Sales, bp.Stock, wcfg)

	// Start barrier: the measured mixed-workload phase begins only once the
	// whole initial roster is Ready, at one shared instant.
	f.gateArrive(p, t, true)

	// Phase 1: first half of the OLTP load on every tenant concurrently.
	half := f.Cfg.OrdersPerTenant / 2
	if err := bp.Shop.Run(p, half); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}

	if t.Analytics {
		// Mid-run snapshot analytics: catch the drain up, group-snapshot the
		// backup volumes, and read the snapshot while OLTP continues on
		// other tenants.
		f.Sys.CatchUp(p, t.Namespace)
		if err := f.verifySnapshot(p, t, "midrun"); err != nil {
			return fmt.Errorf("analytics: %w", err)
		}
		t.AnalyticsOrders = t.Report.SalesTxns
	}

	if t.Failover {
		// Mid-run disaster: NO catch-up — whatever is in flight is lost, and
		// the recovered image must still be a consistent cut.
		t.FailoverAt = p.Now()
		fo, err := f.Sys.Failover(p, t.Namespace)
		if err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		t.RecoveryTime = fo.RecoveryTime
		t.Report = consistency.Verify(fo.Sales, fo.Stock, bp.Shop.SalesCommitOrder(), bp.Shop.StockCommitOrder())
		t.Verified = !t.Report.Collapsed() && t.Report.OrderingOK()
		t.OrdersPlaced = bp.Shop.Completed.Value()
		if !t.Verified {
			return fmt.Errorf("failover image inconsistent: %v", t.Report)
		}
		return nil
	}

	// Phase 2: remaining load, then drain and verify the backup image.
	if err := bp.Shop.Run(p, f.Cfg.OrdersPerTenant-half); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	t.OrdersPlaced = bp.Shop.Completed.Value()
	f.Sys.CatchUp(p, t.Namespace)
	if err := f.verifySnapshot(p, t, "final"); err != nil {
		return err
	}
	t.Verified = !t.Report.Collapsed() && t.Report.OrderingOK()
	if !t.Verified {
		return fmt.Errorf("backup image inconsistent: %v", t.Report)
	}

	if t.Leave {
		// Mid-run leave: the verified tenant drains, decommissions, and must
		// leave zero residue on either array while the survivors keep
		// serving load.
		if t.LeaveAfter > p.Now() {
			p.Sleep(t.LeaveAfter - p.Now())
		}
		// Drain before capturing so the leave's own final backlog bytes are
		// counted (decommission's drain is then a no-op), then capture
		// before teardown reclaims the paths.
		f.Sys.CatchUp(p, t.Namespace)
		f.captureFabric(t)
		var leaveSpan telemetry.Span
		if tel := f.Sys.Telemetry; tel != nil {
			leaveSpan = tel.StartSpan("lifecycle", "decommission", t.Namespace)
		}
		err := f.Sys.DecommissionTenant(p, t.Namespace)
		leaveSpan.End()
		if err != nil {
			return fmt.Errorf("decommission: %w", err)
		}
		t.LeftAt = p.Now()
		t.Left = true
		if res := f.Sys.TenantResidue(t.Namespace); len(res) > 0 {
			return fmt.Errorf("decommission left residue: %v", res)
		}
		t.ReclaimOK = true
	}
	return nil
}

// verifySnapshot group-snapshots the tenant's backup volumes, opens
// analytics views on the snapshot, checks the analytics can actually read
// it, and records the consistency verdict on the tenant.
func (f *Fleet) verifySnapshot(p *sim.Proc, t *Tenant, tag string) error {
	group, err := f.Sys.SnapshotBackup(p, t.Namespace, t.Namespace+"-"+tag)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	salesView, stockView, err := f.Sys.AnalyticsDBs(p, t.Namespace, group)
	if err != nil {
		return fmt.Errorf("analytics views: %w", err)
	}
	if _, err := analytics.Sales(p, salesView); err != nil {
		return fmt.Errorf("analytics read: %w", err)
	}
	t.Report = consistency.Verify(salesView, stockView, t.BP.Shop.SalesCommitOrder(), t.BP.Shop.StockCommitOrder())
	return nil
}

// Totals aggregates fleet-wide outcome counters.
type Totals struct {
	Tenants, FailedOver, Analytics int
	Joined, Left                   int // E14 churn outcomes
	Resharded                      int // mid-run reshards that settled
	MaxReshardTime                 time.Duration
	ReclaimFailures                int // leavers that left residue behind
	Verified, Collapsed            int
	OrdersPlaced                   int64
	LostTxns                       int // replication lag cut off by failovers
	MaxTimeToReady                 time.Duration
	MeanTimeToReady                time.Duration
	MeanJoinReady                  time.Duration // over joined tenants
	MaxJoinReady                   time.Duration
	MeanRecovery                   time.Duration // over failover tenants
	FabricBytes                    int64         // ADC bytes through the shared fabric
}

// Totals sums the per-tenant outcomes.
func (f *Fleet) Totals() Totals {
	var tot Totals
	var readySum, recoverySum, joinReadySum time.Duration
	for _, t := range f.Tenants {
		tot.Tenants++
		tot.OrdersPlaced += t.OrdersPlaced
		if t.Failover {
			tot.FailedOver++
			recoverySum += t.RecoveryTime
			tot.LostTxns += t.Report.LostSalesTxns + t.Report.LostStockTxns
		}
		if t.Analytics {
			tot.Analytics++
		}
		if t.Join {
			tot.Joined++
			joinReadySum += t.TimeToReady
			if t.TimeToReady > tot.MaxJoinReady {
				tot.MaxJoinReady = t.TimeToReady
			}
		}
		if t.Left {
			tot.Left++
			if !t.ReclaimOK {
				tot.ReclaimFailures++
			}
		}
		if t.Resharded {
			tot.Resharded++
			if t.ReshardTime > tot.MaxReshardTime {
				tot.MaxReshardTime = t.ReshardTime
			}
		}
		if t.Verified {
			tot.Verified++
		}
		if t.Report.Collapsed() {
			tot.Collapsed++
		}
		readySum += t.TimeToReady
		if t.TimeToReady > tot.MaxTimeToReady {
			tot.MaxTimeToReady = t.TimeToReady
		}
		tot.FabricBytes += t.FabricBytes
	}
	if tot.Tenants > 0 {
		tot.MeanTimeToReady = readySum / time.Duration(tot.Tenants)
	}
	if tot.Joined > 0 {
		tot.MeanJoinReady = joinReadySum / time.Duration(tot.Joined)
	}
	if tot.FailedOver > 0 {
		tot.MeanRecovery = recoverySum / time.Duration(tot.FailedOver)
	}
	return tot
}
