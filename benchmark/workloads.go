package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/csiplugin"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/invariants"
	"repro/internal/netlink"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Workload constants. They are the benchmark's inputs, not flags: a number
// quoted against a workload name is only comparable while these stand. The
// iteration counts are the full run's (`go run ./benchmark`); a --seconds
// run fits as many iterations as the budget allows. scale shrinks only the
// test's tiny runs.
type scale struct {
	fleetTenants, fleetOrders int
	shopOrders                int
	drainWrites               int
	// Sizes of the backup-off reference runs of the fleet (orders; its small
	// volumes hold about 700) and the drains (block writes).
	fleetRefOrders, drainRefWrites int
}

var fullScale = scale{fleetTenants: 1024, fleetOrders: 8, shopOrders: 4000, drainWrites: 8192, fleetRefOrders: 512, drainRefWrites: 256}

const (
	drainVolumes   = 16
	drainNamespace = "shard-bench" // with claims d00..d15 the volume IDs hash evenly onto 8 shards (E13)
	floodNamespace = "flood"
	floodShare     = 0.25 // share of stamped writes that drag one bulk-class flood write along
	cutDelay       = 30 * time.Millisecond
	readyTimeout   = 30 * time.Second
)

// workloadDef is one named workload: what it runs and why it is here.
type workloadDef struct {
	name        string
	why         string
	iters       int // timed iterations of a full run
	tracedIters int // iterations of the traced pass
	// run executes one iteration at the given seed. tr is nil in the
	// measured pass: no telemetry, no spans.
	run func(sc scale, seed int64, tr *tracer) iterOut
	// reference, when set, is a second way to run the same seed whose
	// sim-clock results must equal run's exactly.
	reference func(sc scale, seed int64, tr *tracer) iterOut
}

var workloads = []workloadDef{
	{
		name:  "fleet_seq",
		why:   "1,024 tenants on the sequential kernel: control plane, API server and handoffs do the work; fabric dispatcher and sharded lanes do none",
		iters: 20, tracedIters: 3,
		run: func(sc scale, seed int64, tr *tracer) iterOut { return runFleet(sc, seed, 1, tr) },
	},
	{
		name:  "fleet_par",
		why:   "same fleet and seeds on 2 scheduler workers: the only place the parallel scheduler can pay; its sim-clock results must equal fleet_seq's",
		iters: 20, tracedIters: 3,
		run:       func(sc scale, seed int64, tr *tracer) iterOut { return runFleet(sc, seed, 2, tr) },
		reference: func(sc scale, seed int64, tr *tracer) iterOut { return runFleet(sc, seed, 1, tr) },
	},
	{
		name:  "shop_adc",
		why:   "the paper's configuration, one shop on one consistency group over one raw link: db/wal commit and recovery and the plain one-lane engine do the work",
		iters: 100, tracedIters: 10,
		run: runShop,
	},
	{
		name:  "drain_sharded",
		why:   "stamped block writes through 8 journal shards, 4 windowed member links and 2 QoS classes: sharded journal, epoch barrier, DRR pick and pipelined dispatch do the work",
		iters: 100, tracedIters: 10,
		run: func(sc scale, seed int64, tr *tracer) iterOut { return runDrain(sc, seed, true, tr) },
	},
	{
		name:  "drain_single",
		why:   "same writes at the degenerate parameters (1 shard, 1 link, window 1): a lane or window gain that taxes the one-lane path shows here and nowhere else",
		iters: 100, tracedIters: 10,
		run: func(sc scale, seed int64, tr *tracer) iterOut { return runDrain(sc, seed, false, tr) },
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// iterOut is everything one iteration produced: its simulated-clock results
// (deterministic for a seed), its correctness tally, and the public
// counters of every layer read once the run is over.
type iterOut struct {
	commit     []time.Duration // one sample per business order / journaled block write
	commitOn   time.Duration   // mean commit latency, backup on
	commitOff  time.Duration   // same seeds, backup off
	rpo        []time.Duration // sampled age of the oldest acked-but-unapplied write
	lost       int             // acked commits/writes missing from the failed-over image
	recovery   time.Duration   // failover -> backup image recovered
	drainBytes int64           // payload bytes applied at the backup ...
	drainTime  time.Duration   // ... over this span
	ready      time.Duration   // mean tenant spec submitted -> Ready

	ops, failed int
	errs        []string

	counts map[string]float64

	// finalize completes the iteration's bookkeeping that must stay out of
	// the timed region: reading samples back, the backup-off reference run.
	finalize func(o *iterOut)
}

func (o *iterOut) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 4 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness assertion as an operation.
func (o *iterOut) check(ok bool, format string, args ...any) {
	o.ops++
	if !ok {
		o.fail(format, args...)
	}
}

// rpoSampler samples replication lag on the simulated clock from an
// Env.OnAdvance observer: it runs between instants, schedules nothing and
// consumes no sequence numbers, so sampling cannot perturb the run. It is
// off until start hands it the engines to watch.
type rpoSampler struct {
	period  time.Duration
	on      bool
	groups  []replication.Replicator
	refresh func() []replication.Replicator // when set, re-reads the engine set every tick
	samples []time.Duration
}

func newRPOSampler(env *sim.Env, period time.Duration) *rpoSampler {
	s := &rpoSampler{period: period}
	env.OnAdvance(s.observe)
	return s
}

func (s *rpoSampler) start(groups []replication.Replicator) { s.groups, s.on = groups, true }

func (s *rpoSampler) stop() { s.on = false }

func (s *rpoSampler) observe(from, to time.Duration) {
	if !s.on {
		return
	}
	first := (from/s.period + 1) * s.period
	if first <= to && s.refresh != nil {
		s.groups = s.refresh()
	}
	for at := first; at <= to; at += s.period {
		var worst time.Duration
		for _, g := range s.groups {
			if g.Stopped() || g.FailedOver() {
				continue
			}
			if r := g.RPO(at); r > worst {
				worst = r
			}
		}
		s.samples = append(s.samples, worst)
	}
}

// shopLatencies reads a shop's per-order latency samples back through the
// histogram's own percentile query: nearest rank at (k-½)/n is sample k.
func shopLatencies(s *workload.Shop) []time.Duration {
	n := s.Latency.Count()
	out := make([]time.Duration, n)
	for k := 1; k <= n; k++ {
		out[k-1] = s.Latency.Percentile(100 * (float64(k) - 0.5) / float64(n))
	}
	return out
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// finish quiesces a system so parked simulation processes never leak into
// the next sample, after reading the counters that Stop would disturb.
func finish(sys *core.System, out *iterOut, namespaces []string, userBytes int64, tr *tracer) {
	collectCounts(sys, out, namespaces, userBytes)
	id := tr.begin("stop")
	sys.Stop()
	sys.Env.Run(0)
	tr.end(id)
	tr.collectTelemetry(sys, out)
	tr.bind(nil) // or the log would keep the whole system reachable
}

// ---- fleet_seq / fleet_par -------------------------------------------------

func fleetSystem(seed int64, tr *tracer) core.Config {
	return core.Config{
		Seed:         seed,
		VolumeBlocks: 256,
		Storage:      storage.Config{BlockSize: 512},
		Telemetry:    tr.telemetry(telemetry.DefaultSamplePeriod),
	}
}

func runFleet(sc scale, seed int64, workers int, tr *tracer) iterOut {
	out := iterOut{counts: map[string]float64{}}
	f := fleet.New(fleet.Config{
		Tenants:         sc.fleetTenants,
		OrdersPerTenant: sc.fleetOrders,
		StartBarrier:    true,
		Workers:         workers,
		System:          fleetSystem(seed, tr),
	})
	tr.bind(f.Sys.Env)
	// Lag is sampled coarsely here, as the worst over all tenants. An engine
	// only exists once the control plane has made it, so each tick looks the
	// still-missing ones up by their group name (what sys.Groups does, minus
	// formatting the name again: a lookup that finds nothing allocates nothing).
	sampler := newRPOSampler(f.Sys.Env, 100*time.Millisecond)
	pending := make([]string, len(f.Tenants))
	for i, t := range f.Tenants {
		pending[i] = operator.GroupNameFor(t.Namespace)
	}
	sampler.refresh = func() []replication.Replicator {
		gs, still := sampler.groups, pending[:0]
		for _, name := range pending {
			if found := f.Sys.Replication.Groups(name); len(found) > 0 {
				gs = append(gs, found...)
			} else {
				still = append(still, name)
			}
		}
		pending = still
		return gs
	}
	sampler.start(nil)

	id := tr.begin("run")
	err := f.Run()
	tr.end(id)

	if err != nil {
		out.errs = append(out.errs, err.Error())
	}
	out.finalize = func(o *iterOut) { fleetResults(sc, seed, f, sampler, tr, o) }
	return out
}

// fleetResults reads a finished fleet: verdicts, per-tenant shop samples,
// counters (fleet.Run has already stopped the system, so finish's Stop is a
// no-op), and the backup-off reference.
func fleetResults(sc scale, seed int64, f *fleet.Fleet, sampler *rpoSampler, tr *tracer, out *iterOut) {
	tot := f.Totals()
	out.ops += tot.Tenants
	out.failed += tot.Tenants - tot.Verified
	out.check(tot.Collapsed == 0, "%d tenants collapsed", tot.Collapsed)
	out.check(f.Sys.Env.Idle(), "simulation horizon hit before the fleet finished")

	var userBytes int64
	namespaces := make([]string, 0, len(f.Tenants))
	for _, t := range f.Tenants {
		namespaces = append(namespaces, t.Namespace)
		if t.BP == nil || t.BP.Shop == nil {
			continue
		}
		out.commit = append(out.commit, shopLatencies(t.BP.Shop)...)
		userBytes += t.BP.Shop.Completed.Value() * orderBytes
		addDBCounts(out, t.BP.Sales, t.BP.Stock)
	}
	out.commitOn = meanDuration(out.commit)
	out.rpo = sampler.samples
	out.lost = tot.LostTxns
	out.recovery = tot.MeanRecovery
	out.ready = tot.MeanTimeToReady
	for _, g := range f.Sys.Replication.AllGroups() {
		out.drainBytes += g.AppliedBytes()
	}
	out.drainTime = f.Sys.Env.Now()
	finish(f.Sys, out, namespaces, userBytes, tr)

	// Backup-off reference: one unreplicated tenant on the same system
	// configuration, driven by tenant 0's shop.
	cfg := fleetSystem(seed, nil)
	cfg.Storage.IsolatedVolumes = true // what fleet.New sets for every tenant
	out.commitOff = shopReference(cfg, workload.Config{Seed: seed}, sc.fleetRefOrders, out)
}

// ---- shop_adc --------------------------------------------------------------

// orderBytes is the row payload one order commits: a 16-byte sales row and
// two 16-byte stock lines.
const orderBytes = 48

const shopWALBlocks = 256

func shopSystem(seed int64, tr *tracer) core.Config {
	// Zero Link and Fabric are the paper's single 5 ms / 1 GB/s pipe in
	// passthrough. The WAL holds the whole run: a recovered database knows
	// the commits of its WAL only, so a checkpoint that truncated the log
	// mid-run would leave consistency.Verify nothing to check the image's
	// prefix against. The checkpoint path still runs once per recovery.
	return core.Config{
		Seed:      seed,
		DB:        db.Config{WALBlocks: shopWALBlocks},
		Telemetry: tr.telemetry(10 * time.Millisecond),
	}
}

func shopLoad(seed int64) workload.Config {
	return workload.Config{ReadFraction: 0.25, ZipfS: 1.2, Seed: seed}
}

func runShop(sc scale, seed int64, tr *tracer) iterOut {
	const ns = "shop"
	out := iterOut{counts: map[string]float64{}}
	sys := core.NewSystem(shopSystem(seed, tr))
	tr.bind(sys.Env)
	sampler := newRPOSampler(sys.Env, time.Millisecond)

	var userBytes int64
	var shop *workload.Shop
	sys.Env.Process("driver", func(p *sim.Proc) {
		id := tr.begin("provision")
		t0 := p.Now()
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{
			Namespace: ns,
			PVCNames:  []string{"sales", "stock"},
			Backup:    true,
			Profile:   "oltp-external",
		})
		tr.end(id)
		if err != nil {
			out.check(false, "provision: %v", err)
			return
		}
		out.ready = p.Now() - t0
		shop = workload.NewShop(sys.Env, bp.Sales, bp.Stock, shopLoad(seed))

		id = tr.begin("load")
		sampler.start(sys.Groups(ns))
		loadStart := p.Now()
		err = shop.Run(p, sc.shopOrders)
		sampler.stop()
		tr.end(id)
		out.ops += int(shop.Completed.Value() + shop.Reads.Value() + shop.Failed.Value())
		out.failed += int(shop.Failed.Value())
		if err != nil {
			out.fail("load: %v", err)
		}
		for _, g := range sys.Groups(ns) {
			out.drainBytes += g.AppliedBytes()
		}
		out.drainTime = p.Now() - loadStart
		userBytes = shop.Completed.Value() * orderBytes

		// Site failover straight after the last ack: no catch-up, whatever is
		// in flight is the data loss.
		id = tr.begin("failover")
		fo, err := sys.Failover(p, ns)
		tr.end(id)
		if err != nil {
			out.check(false, "failover: %v", err)
			return
		}
		out.recovery = fo.RecoveryTime
		id = tr.begin("verify")
		rep := consistency.Verify(fo.Sales, fo.Stock, shop.SalesCommitOrder(), shop.StockCommitOrder())
		tr.end(id)
		out.check(!rep.Collapsed() && rep.OrderingOK(), "backup image inconsistent: %v", rep)
		out.lost = rep.LostSalesTxns + rep.LostStockTxns
		addDBCounts(&out, bp.Sales, bp.Stock)
		out.counts["db.recovered_txns"] += float64(fo.Sales.RecoveredTxns() + fo.Stock.RecoveredTxns())
	})
	sys.Env.Run(0)
	out.rpo = sampler.samples
	finish(sys, &out, []string{ns}, userBytes, tr)

	out.finalize = func(o *iterOut) {
		if shop != nil {
			o.commit = shopLatencies(shop)
			o.commitOn = meanDuration(o.commit)
		}
		// The slowdown baseline replays the same seeds with backup off.
		o.commitOff = shopReference(shopSystem(seed, nil), shopLoad(seed), sc.shopOrders, o)
	}
	return out
}

// shopReference runs `orders` orders of the given load against one tenant
// provisioned WITHOUT backup on a fresh system and returns the mean order
// latency — the denominator of commit_slowdown_pct.
func shopReference(cfg core.Config, load workload.Config, orders int, out *iterOut) time.Duration {
	sys := core.NewSystem(cfg)
	var lat time.Duration
	sys.Env.Process("reference", func(p *sim.Proc) {
		bp, err := sys.ProvisionTenant(p, platform.TenantSpec{
			Namespace: "reference",
			PVCNames:  []string{"sales", "stock"},
			Profile:   "oltp-external",
		})
		if err != nil {
			out.check(false, "reference provision: %v", err)
			return
		}
		shop := workload.NewShop(sys.Env, bp.Sales, bp.Stock, load)
		if err := shop.Run(p, orders); err != nil {
			out.check(false, "reference load: %v", err)
			return
		}
		lat = shop.Latency.Mean()
	})
	sys.Env.Run(0)
	sys.Stop()
	sys.Env.Run(0)
	return lat
}

// ---- drain_sharded / drain_single -------------------------------------------

// drainInput is one iteration's generated input: the order in which the
// stamped writes visit the (volume, block) slots, and which of them drag a
// flood write along. The same seed gives the same input.
type drainInput struct {
	slots []int32 // slot k is volume k%drainVolumes, block k/drainVolumes
	flood []bool
}

func genDrain(sc scale, seed int64) drainInput {
	rng := rand.New(rand.NewSource(seed))
	in := drainInput{slots: make([]int32, sc.drainWrites), flood: make([]bool, sc.drainWrites)}
	for i, k := range rng.Perm(sc.drainWrites) {
		in.slots[i] = int32(k)
		in.flood[i] = rng.Float64() < floodShare
	}
	return in
}

func drainSystem(sc scale, seed int64, sharded bool, tr *tracer) core.Config {
	links, window := 1, 1
	if sharded {
		links, window = 4, 4
	}
	members := make([]netlink.Config, links)
	for i := range members {
		members[i] = netlink.Config{Propagation: 20 * time.Millisecond, BandwidthBps: 8e6}
	}
	return core.Config{
		Seed: seed,
		Fabric: fabric.Config{
			Links:         members,
			Classes:       []fabric.ClassConfig{{Name: "gold", Weight: 8}, {Name: "bulk", Weight: 1}},
			WindowPerLink: window,
		},
		// A fast array keeps the inter-site fabric, not the primary, the
		// bottleneck in both variants: the writes outrun even four links.
		Storage:      storage.Config{WriteLatency: 50 * time.Microsecond, JournalLatency: 5 * time.Microsecond},
		VolumeBlocks: int64(sc.drainWrites/drainVolumes + 2),
		Telemetry:    tr.telemetry(10 * time.Millisecond),
	}
}

func runDrain(sc scale, seed int64, sharded bool, tr *tracer) iterOut {
	out := iterOut{counts: map[string]float64{}, commit: make([]time.Duration, 0, 2*sc.drainWrites)}
	in := genDrain(sc, seed)
	var readyA, readyB time.Duration
	drainPhase(sc, seed, sharded, false, in, tr, &out, &readyA)
	drainPhase(sc, seed, sharded, true, in, tr, &out, &readyB)
	out.ready = (readyA + readyB) / 2
	out.commitOn = meanDuration(out.commit)
	out.finalize = func(o *iterOut) { drainReference(sc, seed, sharded, o) }
	return out
}

// drainReference is the backup-off reference of the drain workloads: the
// same block writes against an unjournaled volume.
func drainReference(sc scale, seed int64, sharded bool, out *iterOut) {
	sys := core.NewSystem(drainSystem(sc, seed, sharded, nil))
	sys.Env.Process("reference", func(p *sim.Proc) {
		vols, err := provisionRaw(p, sys, "reference", []string{"r0"}, false, "", 0, nil)
		if err != nil {
			out.check(false, "reference provision: %v", err)
			return
		}
		buf := make([]byte, vols[0].BlockSize())
		t0 := p.Now()
		for i := 0; i < sc.drainRefWrites; i++ {
			if _, err := vols[0].Write(p, int64(i)%vols[0].SizeBlocks(), buf); err != nil {
				out.check(false, "reference write: %v", err)
				return
			}
		}
		out.commitOff = (p.Now() - t0) / time.Duration(sc.drainRefWrites)
	})
	sys.Env.Run(0)
	sys.Stop()
	sys.Env.Run(0)
}

// provisionRaw declares a data-only tenant and returns its main-site
// volumes in claim order.
func provisionRaw(p *sim.Proc, sys *core.System, ns string, claims []string, backup bool, class string, shards int, ready *time.Duration) ([]*storage.Volume, error) {
	t0 := p.Now()
	if err := sys.ApplyTenant(p, platform.TenantSpec{
		Namespace:     ns,
		PVCNames:      claims,
		Backup:        backup,
		QoSClass:      class,
		JournalShards: shards,
		Profile:       "data-only",
	}); err != nil {
		return nil, err
	}
	if err := sys.WaitTenantCondition(p, ns, core.CondReady(), readyTimeout); err != nil {
		return nil, err
	}
	if ready != nil {
		*ready = p.Now() - t0
	}
	vols := make([]*storage.Volume, len(claims))
	for i, c := range claims {
		v, err := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim(ns, c))
		if err != nil {
			return nil, err
		}
		vols[i] = v
	}
	return vols, nil
}

// drainPhase runs the stamped writes once on a fresh system. Phase A
// (failover false) drains to empty and measures throughput and lag; phase B
// cuts the pair cutDelay after the half-way write and checks that the
// failed-over image is an exact prefix of the ack order.
func drainPhase(sc scale, seed int64, sharded, failover bool, in drainInput, tr *tracer, out *iterOut, ready *time.Duration) {
	shards := 1
	if sharded {
		shards = 8
	}
	sys := core.NewSystem(drainSystem(sc, seed, sharded, tr))
	tr.bind(sys.Env)
	sampler := newRPOSampler(sys.Env, time.Millisecond)
	claims := make([]string, drainVolumes)
	for i := range claims {
		claims[i] = fmt.Sprintf("d%02d", i)
	}

	halfway := sys.Env.NewEvent()
	acked := 0
	var g replication.Replicator
	sys.Env.Process("driver", func(p *sim.Proc) {
		id := tr.begin("provision")
		vols, err := provisionRaw(p, sys, drainNamespace, claims, true, "gold", shards, ready)
		var floodVols []*storage.Volume
		if err == nil {
			floodVols, err = provisionRaw(p, sys, floodNamespace, []string{"f0"}, true, "bulk", 1, nil)
		}
		tr.end(id)
		gs := sys.Groups(drainNamespace)
		provisioned := err == nil && len(gs) == 1 && gs[0].Lanes() == shards
		out.check(provisioned, "provision: %v (%d engines)", err, len(gs))
		if !provisioned {
			halfway.Trigger() // release the disaster process, which finds no engine
			return
		}
		g = gs[0]

		id = tr.begin("load")
		if !failover {
			sampler.start(gs)
		}
		buf := make([]byte, vols[0].BlockSize())
		floodVol, floodBlock := floodVols[0], int64(0)
		start := p.Now()
		for i, k := range in.slots {
			binary.BigEndian.PutUint64(buf, uint64(i+1))
			w0 := p.Now()
			_, err := vols[int(k)%drainVolumes].Write(p, int64(int(k)/drainVolumes), buf)
			out.ops++
			if err != nil {
				out.fail("write %d: %v", i+1, err)
			}
			out.commit = append(out.commit, p.Now()-w0)
			acked++
			if in.flood[i] {
				if _, err := floodVol.Write(p, floodBlock, buf); err != nil {
					out.fail("flood write: %v", err)
				}
				floodBlock = (floodBlock + 1) % floodVol.SizeBlocks()
			}
			if i == len(in.slots)/2 {
				halfway.Trigger()
			}
		}
		tr.end(id)
		if failover {
			return // the disaster process owns the rest of this phase
		}
		id = tr.begin("drain")
		caught := g.CatchUp(p)
		tr.end(id)
		sampler.stop()
		out.drainTime = p.Now() - start
		out.drainBytes = g.AppliedBytes()
		out.check(caught, "drain never caught up")

		id = tr.begin("verify")
		backup := make([]*storage.Volume, 0, len(claims))
		for _, c := range claims {
			if v, err := sys.Backup.Array.Volume(csiplugin.VolumeIDForClaim(drainNamespace, c)); err == nil {
				backup = append(backup, v)
			}
		}
		k, exact := invariants.StampedPrefix(backup)
		tr.end(id)
		out.check(exact && k == len(in.slots), "drained image holds prefix %d of %d (exact %v)", k, len(in.slots), exact)
	})
	if failover {
		sys.Env.Process("disaster", func(p *sim.Proc) {
			p.Wait(halfway)
			if g == nil {
				return
			}
			p.Sleep(cutDelay)
			id := tr.begin("failover")
			ackedAtCut := acked
			cut := p.Now()
			vols, err := g.Failover()
			if err != nil {
				tr.end(id)
				out.check(false, "failover: %v", err)
				return
			}
			// Recovery of a raw-volume tenant is reading its image back:
			// one sequential scan per volume up to its last written block.
			for _, v := range vols {
				blocks := v.WrittenBlocks()
				if len(blocks) == 0 {
					continue
				}
				if _, err := v.ReadRange(p, 0, int(blocks[len(blocks)-1])+1); err != nil {
					out.fail("recovery scan: %v", err)
				}
			}
			out.recovery = p.Now() - cut
			tr.end(id)
			id = tr.begin("verify")
			k, exact := invariants.StampedPrefix(vols)
			tr.end(id)
			out.check(exact && k <= ackedAtCut, "failover image holds prefix %d of %d acked (exact %v)", k, ackedAtCut, exact)
			out.lost = ackedAtCut - k
		})
	}
	sys.Env.Run(0)
	if !failover {
		out.rpo = sampler.samples
	}
	var violations int64
	for _, l := range sys.Fabric.Forward.Links() {
		violations += l.OrderViolations()
	}
	out.check(violations == 0, "%d per-link delivery order violations", violations)
	userBytes := int64(len(in.slots)) * int64(sys.Main.Array.Config().BlockSize)
	finish(sys, out, []string{drainNamespace, floodNamespace}, userBytes, tr)
}
