package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
)

// E15 scenario scale. One write-heavy tenant (the same 16-volume shape E13
// sweeps) starts on the paper's single shared journal and is resharded live
// to four drain lanes over a four-link fabric, while two bystander OLTP
// tenants keep committing through the same control plane and fabric — the
// fleet-load context the reshard must not need downtime under.
const (
	e15Namespace  = "reshard-bench"
	e15Volumes    = 16
	e15Links      = 4
	e15FromShards = 1
	e15ToShards   = 4
	e15Background = 2  // bystander OLTP tenants
	e15BgOrders   = 12 // orders each bystander places during the run
)

// E15Reshard runs the dynamic-resharding experiment: a throughput run
// measuring the live 1→4 transition (plus the unchanged-reconcile no-op
// check), then a failover run racing a disaster into the migration window.
func E15Reshard(seed int64, writes int) (*Table, error) {
	if writes <= 0 {
		writes = 4000
	}
	t := NewTable("E15: dynamic journal resharding — live 1->4 under fleet load",
		"metric", "value")
	t.AddRow("writes (bench tenant)", writes)
	t.AddRow("reshard", fmt.Sprintf("%d -> %d lanes", e15FromShards, e15ToShards))
	if err := e15Run(seed, writes, false, t); err != nil {
		return nil, fmt.Errorf("E15 throughput: %w", err)
	}
	if err := e15Run(seed, writes, true, t); err != nil {
		return nil, fmt.Errorf("E15 failover: %w", err)
	}
	t.AddNote("shape: the 1->4 reshard needs no downtime, post-reshard drain >= 2x the single lane, a mid-window failover recovers an exact epoch-boundary prefix, and an unchanged reconcile migrates nothing")
	return t, nil
}

// e15System assembles the four-link system both runs share.
func e15System(seed int64, writes int) *core.System {
	return core.NewSystem(core.Config{
		Seed:         seed,
		Fabric:       fabric.Config{Links: thinLinks(e15Links)},
		VolumeBlocks: int64(writes/e15Volumes + 2),
	})
}

// e15Run runs the throughput run (continuous write-heavy load, reshard
// declared at the halfway write) or the failover run (the pair split while
// the migration window is open) and adds its rows to t.
func e15Run(seed int64, writes int, failover bool, t *Table) error {
	sys := e15System(seed, writes)
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	halfway, written, ready := sys.Env.NewEvent(), sys.Env.NewEvent(), sys.Env.NewEvent()
	var bg []*core.BusinessProcess
	var engine *replication.Group
	var startWrites time.Duration

	// Driver: declare the write-heavy tenant on one journal shard, then the
	// bystander OLTP tenants, then write.
	sys.Env.Process("driver", func(p *sim.Proc) {
		defer written.Trigger()
		vols, g, err := provisionDataTenant(p, sys, e15Namespace, e15Volumes, e15FromShards, "")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < e15Background; i++ {
			bp, err := sys.ProvisionTenant(p, platform.TenantSpec{
				Namespace: fmt.Sprintf("bystander-%d", i),
				PVCNames:  []string{"sales", "stock"},
				Backup:    true,
			})
			if err != nil {
				fail(err)
				return
			}
			bg = append(bg, bp)
		}
		engine, startWrites = g, p.Now()
		ready.Trigger()
		if err := writeStamped(p, vols, writes, 0, halfway); err != nil {
			fail(err)
		}
	})
	// Bystander load: OLTP commits through the same control plane and
	// fabric for the whole measurement.
	for i := 0; i < e15Background; i++ {
		i := i
		sys.Env.Process(fmt.Sprintf("bystander-%d", i), func(p *sim.Proc) {
			p.Wait(ready)
			if err := bg[i].Shop.Run(p, e15BgOrders); err != nil {
				fail(fmt.Errorf("bystander %d: %w", i, err))
			}
		})
	}

	if !failover {
		sys.Env.Process("reshard", func(p *sim.Proc) {
			p.Wait(halfway)
			preBytes := engine.AppliedBytes()
			declaredAt := p.Now()
			pre := mbps(preBytes, declaredAt-startWrites)
			// The windows turn at the engine's settle and at the end of the
			// writes, not when the client's backoff poll (up to 160 ms apart)
			// notices: drain lands in whole batches, so a window edge that
			// lags moves a batch's bytes across it.
			settle := sys.Env.NewEvent()
			var settledAt, postStart time.Duration
			var settledBytes, postBase int64
			sys.Env.Process("settle", func(p *sim.Proc) {
				defer settle.Trigger()
				for deadline := p.Now() + time.Minute; engine.Lanes() != e15ToShards; p.Sleep(time.Millisecond) {
					if p.Now() >= deadline {
						return
					}
				}
				engine.AwaitReshard(p)
				settledAt, settledBytes = p.Now(), engine.AppliedBytes()
				p.Wait(written)
				postStart, postBase = p.Now(), engine.AppliedBytes()
			})
			if err := sys.UpdateTenantSpec(p, e15Namespace, func(s *platform.TenantSpec) {
				s.JournalShards = e15ToShards
			}); err != nil {
				fail(fmt.Errorf("reshard: %w", err))
				return
			}
			if err := sys.WaitTenantCondition(p, e15Namespace, core.CondResharded(e15ToShards), time.Minute); err != nil {
				fail(fmt.Errorf("reshard: %w", err))
				return
			}
			p.Wait(settle)
			sg, sj := engine, engine.Journal()
			if sg.Lanes() != e15ToShards {
				fail(fmt.Errorf("post-reshard engine runs %d lanes", sg.Lanes()))
				return
			}
			barrier, movedVols, movedRecs := sg.MigrationBarrier(), sj.MovedVolumes(), sj.MovedRecords()

			// Post window: drain the remaining backlog on four lanes.
			sg.CatchUp(p)
			post := mbps(engine.AppliedBytes()-postBase, p.Now()-postStart)
			t.AddRow("drain MB/s before reshard", pre)
			t.AddRow("drain MB/s during migration window", mbps(settledBytes-preBytes, settledAt-declaredAt))
			t.AddRow("drain MB/s after reshard", post)
			t.AddRow("post/pre speedup", speedupOver(post, pre))
			t.AddRow("migration stall (declare -> settled)", settledAt-declaredAt)
			t.AddRow("migration barrier epoch", barrier)
			t.AddRow("volumes re-placed", movedVols)
			t.AddRow("pending records migrated", movedRecs)

			// Unchanged reconcile: re-declare the same count and touch the
			// CR so every controller runs once more — zero migration.
			reshards, moved := sj.Reshards(), sj.MovedRecords()
			if err := sys.UpdateTenantSpec(p, e15Namespace, func(s *platform.TenantSpec) {
				s.JournalShards = e15ToShards
			}); err != nil {
				fail(fmt.Errorf("no-op reshard: %w", err))
				return
			}
			if err := sys.WaitTenantCondition(p, e15Namespace, core.CondResharded(e15ToShards), time.Minute); err != nil {
				fail(fmt.Errorf("no-op reshard: %w", err))
				return
			}
			rgKey := platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-" + e15Namespace}
			if obj, err := sys.Main.API.Get(p, rgKey); err == nil {
				if err := sys.Main.API.Update(p, obj.DeepCopy()); err != nil {
					fail(err)
					return
				}
			}
			p.Sleep(100 * time.Millisecond)
			noop := sj.Reshards() == reshards && sj.MovedRecords() == moved &&
				sys.Groups(e15Namespace)[0] == sg

			var bgOrders int64
			for i := range bg {
				sys.CatchUp(p, fmt.Sprintf("bystander-%d", i))
				bgOrders += bg[i].Shop.Completed.Value()
			}
			t.AddRow("bystander OLTP orders", bgOrders)
			t.AddRow("unchanged reconcile migrated zero", noop)
		})
	} else {
		sys.Env.Process("reshard", func(p *sim.Proc) {
			p.Wait(halfway)
			if err := sys.UpdateTenantSpec(p, e15Namespace, func(s *platform.TenantSpec) {
				s.JournalShards = e15ToShards
			}); err != nil {
				fail(err)
			}
		})
		sys.Env.Process("disaster", func(p *sim.Proc) {
			p.Wait(halfway)
			// Strike while the migration window is open.
			deadline := p.Now() + 30*time.Second
			for !engine.Resharding() {
				if p.Now() >= deadline {
					fail(fmt.Errorf("migration window never observed open"))
					return
				}
				p.Sleep(time.Millisecond)
			}
			preBarrier := engine.CommittedEpoch() < engine.MigrationBarrier()
			cut, exact, err := cutStamped(p, engine, written)
			if err != nil {
				fail(err)
			}
			t.AddRow("failover raced into open window", true)
			t.AddRow("failover cut entirely pre-barrier", preBarrier)
			t.AddRow("failover cut writes / lost", pair{cut, writes - cut})
			t.AddRow("failover image exact ack-order prefix", exact)
		})
	}
	sys.Env.Run(0)
	quiesce(sys, 0)
	return runErr
}
