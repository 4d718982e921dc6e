package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlink"
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

// ReshardResult is the E15 outcome: drain throughput before, during, and
// after a live 1→4 reshard; the migration window's cost and movement; the
// zero-migration proof for an unchanged reconcile; and a failover raced
// into the open migration window.
type ReshardResult struct {
	Writes               int
	FromShards, ToShards int

	// Throughput run: continuous write-heavy load, reshard declared at the
	// halfway write.
	PreMBps          float64       // drain throughput on the single lane
	DuringMBps       float64       // throughput inside the migration window
	PostMBps         float64       // throughput on the settled 4-lane drain
	SpeedupPostVsPre float64       // the >= 2x acceptance number
	StallTime        time.Duration // spec declared -> migration settled
	BarrierEpoch     int64         // epoch sealed as the migration barrier
	MovedVolumes     int64         // members re-placed by the stable hash
	MovedRecords     int64         // pending records migrated with them
	BackgroundOrders int64         // bystander OLTP commits during the run

	// Unchanged-reconcile proof (same run, after the reshard settles):
	// re-declaring the same shard count and touching the CR must migrate
	// nothing — verified by the journal's lifetime counters.
	NoopZeroMigration bool

	// Failover run: the pair is split while the migration window is open.
	RacedWindow        bool // the cut landed inside the window
	CutWrites          int  // K: writes present in the recovered image
	LostWrites         int  // acked writes missing from the image (RPO)
	CutPreBarrier      bool // recovered state is entirely pre-barrier
	FailoverConsistent bool // image is the exact ack-order prefix {1..K}
}

// E15Reshard runs the dynamic-resharding experiment: a throughput run
// measuring the live 1→4 transition (plus the unchanged-reconcile no-op
// check), then a failover run racing a disaster into the migration window.
func E15Reshard(seed int64, writes int) (ReshardResult, error) {
	if writes <= 0 {
		writes = 4000
	}
	res := ReshardResult{Writes: writes, FromShards: e15FromShards, ToShards: e15ToShards}
	if err := e15Run(seed, writes, false, &res); err != nil {
		return res, fmt.Errorf("E15 throughput: %w", err)
	}
	if err := e15Run(seed, writes, true, &res); err != nil {
		return res, fmt.Errorf("E15 failover: %w", err)
	}
	if res.PreMBps > 0 {
		res.SpeedupPostVsPre = res.PostMBps / res.PreMBps
	}
	return res, nil
}

// e15System assembles the four-link system both runs share.
func e15System(seed int64, writes int) *core.System {
	member := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 4e6}
	links := make([]netlink.Config, e15Links)
	for i := range links {
		links[i] = member
	}
	return core.NewSystem(core.Config{
		Seed:         seed,
		Fabric:       fabric.Config{Links: links},
		VolumeBlocks: int64(writes/e15Volumes + 2),
	})
}

func e15Run(seed int64, writes int, failover bool, res *ReshardResult) error {
	sys := e15System(seed, writes)
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	halfway, written, ready := sys.Env.NewEvent(), sys.Env.NewEvent(), sys.Env.NewEvent()
	var bg []*core.BusinessProcess
	var engine replication.Replicator
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
			res.PreMBps = mbps(preBytes, declaredAt-startWrites)
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
				engine.(*replication.Group).AwaitReshard(p)
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
			res.StallTime = settledAt - declaredAt
			res.DuringMBps = mbps(settledBytes-preBytes, settledAt-declaredAt)
			sg, sj := engine, engine.Journal()
			if sg.Lanes() != e15ToShards {
				fail(fmt.Errorf("post-reshard engine runs %d lanes", sg.Lanes()))
				return
			}
			res.BarrierEpoch = sg.MigrationBarrier()
			res.MovedVolumes = sj.MovedVolumes()
			res.MovedRecords = sj.MovedRecords()

			// Post window: drain the remaining backlog on four lanes.
			sg.CatchUp(p)
			res.PostMBps = mbps(engine.AppliedBytes()-postBase, p.Now()-postStart)

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
			res.NoopZeroMigration = sj.Reshards() == reshards && sj.MovedRecords() == moved &&
				sys.Groups(e15Namespace)[0] == sg

			for i := range bg {
				sys.CatchUp(p, fmt.Sprintf("bystander-%d", i))
				res.BackgroundOrders += bg[i].Shop.Completed.Value()
			}
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
			res.RacedWindow = true
			res.CutPreBarrier = engine.CommittedEpoch() < engine.MigrationBarrier()
			var err error
			if res.CutWrites, res.FailoverConsistent, err = cutStamped(p, engine, written); err != nil {
				fail(err)
			}
			res.LostWrites = writes - res.CutWrites
		})
	}
	sys.Env.Run(0)
	sys.Stop()
	sys.Env.Run(0)
	return runErr
}

// mbps converts a byte count over a span to MB/s (0 for an empty span).
func mbps(bytes int64, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / span.Seconds()
}

// E15Table renders the E15 result.
func E15Table(r ReshardResult) *Table {
	t := NewTable("E15: dynamic journal resharding — live 1->4 under fleet load",
		"metric", "value")
	t.AddRow("writes (bench tenant)", r.Writes)
	t.AddRow("reshard", fmt.Sprintf("%d -> %d lanes", r.FromShards, r.ToShards))
	t.AddRow("drain MB/s before reshard", fmt.Sprintf("%.2f", r.PreMBps))
	t.AddRow("drain MB/s during migration window", fmt.Sprintf("%.2f", r.DuringMBps))
	t.AddRow("drain MB/s after reshard", fmt.Sprintf("%.2f", r.PostMBps))
	t.AddRow("post/pre speedup", fmt.Sprintf("%.2fx", r.SpeedupPostVsPre))
	t.AddRow("migration stall (declare -> settled)", r.StallTime)
	t.AddRow("migration barrier epoch", r.BarrierEpoch)
	t.AddRow("volumes re-placed", r.MovedVolumes)
	t.AddRow("pending records migrated", r.MovedRecords)
	t.AddRow("bystander OLTP orders", r.BackgroundOrders)
	t.AddRow("unchanged reconcile migrated zero", r.NoopZeroMigration)
	t.AddRow("failover raced into open window", r.RacedWindow)
	t.AddRow("failover cut entirely pre-barrier", r.CutPreBarrier)
	t.AddRow("failover cut writes / lost", fmt.Sprintf("%d / %d", r.CutWrites, r.LostWrites))
	t.AddRow("failover image exact ack-order prefix", r.FailoverConsistent)
	t.AddNote("shape: the 1->4 reshard needs no downtime, post-reshard drain >= 2x the single lane, a mid-window failover recovers an exact epoch-boundary prefix, and an unchanged reconcile migrates nothing")
	return t
}
