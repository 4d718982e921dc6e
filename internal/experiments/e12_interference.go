package experiments

import (
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E12 QoS class names.
const (
	e12Gold   = "gold"   // the victim tenant's class
	e12Silver = "silver" // background tenants
	e12Bulk   = "bulk"   // the noisy neighbor
)

// E12 scenario scale. The noisy neighbor runs several independent drain
// sessions (a tenant with many volumes, each its own copy session), which
// is what makes FIFO fan-in hurt: the victim's batch queues behind all of
// them, not just one.
const (
	e12NoisyDrains = 8   // independent flood copy-sessions
	e12NoisyWrites = 400 // blocks written per flood session
	e12BgTenants   = 2   // light background tenants
	e12BgWrites    = 60  // paced writes per background tenant
)

// e12Scenario selects the fabric policy under test.
type e12Scenario struct {
	name        string
	links       []netlink.Config
	classes     []fabric.ClassConfig
	noisy       bool
	dedicated   bool // the victim's paths ride member 1, everyone else's member 0
	linkFailure bool
	window      int // per-link in-flight window (0 = stop-and-wait default)
}

func e12Scenarios() []e12Scenario {
	// Thin members (thinLinks): one flood batch serializes in ~67ms, so FIFO
	// fan-in behind eight flood sessions costs the victim ~0.5s per batch.
	weighted := []fabric.ClassConfig{
		{Name: e12Gold, Weight: 8},
		{Name: e12Silver, Weight: 2},
		{Name: e12Bulk, Weight: 1},
	}
	return []e12Scenario{
		{name: "baseline", links: thinLinks(1)},
		{name: "no-qos", links: thinLinks(1), noisy: true},
		{name: "weighted", links: thinLinks(1), classes: weighted, noisy: true},
		{name: "dedicated", links: thinLinks(2), classes: weighted, noisy: true, dedicated: true},
		{name: "link-failure", links: thinLinks(2), classes: weighted, noisy: true, linkFailure: true},
	}
}

// E12Interference measures cross-tenant interference on the shared
// inter-site fabric: a victim tenant runs paced OLTP while a noisy
// neighbor floods eight copy sessions, under (a) no QoS on one shared
// link, (b) weighted QoS classes, (c) a dedicated victim link, plus (d) a
// two-member fabric losing a link mid-run. The shape the paper's scale-out
// story needs: victim degradation is worst under (a), bounded under (b),
// near the no-noise baseline under (c), and (d) reroutes without breaking
// any tenant's consistency cut.
func E12Interference(seed int64, orders int) (*Table, error) {
	return e12Sweep(seed, e12Scenarios(), orders)
}

// e12Sweep runs each scenario and adds its row: what the victim tenant
// experienced while the noisy neighbor flooded the shared fabric.
func e12Sweep(seed int64, scenarios []e12Scenario, orders int) (*Table, error) {
	if orders <= 0 {
		orders = 40
	}
	t := NewTable("E12: cross-tenant interference on the inter-site fabric — noisy neighbor vs QoS policy",
		"scenario", "links", "victim mean RPO", "max RPO", "mean drain xfer", "queue delay", "catch-up", "noisy MB", "consistent")
	for _, sc := range scenarios {
		if err := e12Run(seed, sc, orders, t); err != nil {
			return nil, fmt.Errorf("E12 %s: %w", sc.name, err)
		}
	}
	t.AddNote("shape: victim degradation no-qos >> weighted > dedicated ~= baseline; cuts never break, even across a member-link failure")
	return t, nil
}

// e12Run runs one scenario and adds its row to t. It fails if the victim
// placed no orders or, on a link failure, if the surviving member did not
// carry the outage's traffic.
func e12Run(seed int64, sc e12Scenario, orders int, t *Table) error {
	env := sim.NewEnv(seed)
	// Generous controller parallelism keeps the arrays out of the way: the
	// interference under test is the fabric's, not the media's.
	scfg := storage.Config{Parallelism: 32}
	main := storage.NewArray(env, "main", scfg)
	backup := storage.NewArray(env, "backup", scfg)
	fab := fabric.New(env, fabric.Config{Links: sc.links, Classes: sc.classes, WindowPerLink: sc.window})
	victimLink, otherLink := -1, -1 // the members paths are pinned to (-1: any)
	if sc.dedicated {
		victimLink, otherLink = 1, 0
	}

	// Victim tenant: the standard two-volume shop on a consistency group.
	if err := createTwins(main, backup, 2048, "v-sales", "v-stock"); err != nil {
		return err
	}
	victimPath := fab.PathOn(e12Gold, "victim", victimLink)
	vg, err := startADC(env, main, backup, "victim", []storage.VolumeID{"v-sales", "v-stock"},
		victimPath, replication.Config{BatchMax: 16})
	if err != nil {
		return err
	}

	// Noisy neighbor: independent single-volume copy sessions that flood.
	noisyPath := fab.PathOn(e12Bulk, "noisy", otherLink)
	var others []*replication.Group
	var noisyVols []storage.VolumeID
	if sc.noisy {
		for k := 0; k < e12NoisyDrains; k++ {
			id := storage.VolumeID(fmt.Sprintf("noisy-%d", k))
			if err := createTwins(main, backup, 512, id); err != nil {
				return err
			}
			g, err := startADC(env, main, backup, string(id), []storage.VolumeID{id},
				noisyPath, replication.Config{BatchMax: 64})
			if err != nil {
				return err
			}
			others = append(others, g)
			noisyVols = append(noisyVols, id)
		}
	}

	// Background tenants: light paced writers in their own class.
	var bgVols []storage.VolumeID
	for b := 0; b < e12BgTenants; b++ {
		id := storage.VolumeID(fmt.Sprintf("bg-%d", b))
		if err := createTwins(main, backup, 512, id); err != nil {
			return err
		}
		g, err := startADC(env, main, backup, string(id), []storage.VolumeID{id},
			fab.PathOn(e12Silver, string(id), otherLink), replication.Config{BatchMax: 16})
		if err != nil {
			return err
		}
		others = append(others, g)
		bgVols = append(bgVols, id)
	}

	// Open the victim databases (writes replicate from the first block, so
	// no initial copy is needed) and wire the paced shop.
	var shop *workload.Shop
	if err := runProc(env, "bootstrap", 0, func(p *sim.Proc) error {
		salesVol, _ := main.Volume("v-sales")
		stockVol, _ := main.Volume("v-stock")
		var err error
		shop, err = openShop(p, "v-", salesVol, stockVol, workload.Config{Seed: seed, ThinkTime: 10 * time.Millisecond})
		return err
	}); err != nil {
		return err
	}

	// The victim's backup lag, probed while its orders run.
	reg := telemetry.New(env, telemetry.Config{SamplePeriod: 10 * time.Millisecond})
	vg.Instrument(reg, "victim")

	// The flood: each session dirties its whole volume as fast as the
	// array accepts, building a deep journal backlog immediately. The
	// writers run concurrently, so they keep the first error.
	var writeErr error
	write := func(p *sim.Proc, id storage.VolumeID, fill byte, writes int, pace time.Duration) {
		vol, _ := main.Volume(id)
		buf := make([]byte, main.Config().BlockSize)
		buf[0] = fill
		for i := 0; i < writes; i++ {
			if _, err := vol.Write(p, int64(i)%vol.SizeBlocks(), buf); err != nil {
				if writeErr == nil {
					writeErr = fmt.Errorf("%s write %d: %w", id, i, err)
				}
				return
			}
			if pace > 0 {
				p.Sleep(pace)
			}
		}
	}
	for _, id := range noisyVols {
		id := id
		env.Process("flood:"+string(id), func(p *sim.Proc) { write(p, id, 0xF1, e12NoisyWrites, 0) })
	}
	for _, id := range bgVols {
		id := id
		env.Process("bg:"+string(id), func(p *sim.Proc) { write(p, id, 0xB6, e12BgWrites, 5*time.Millisecond) })
	}

	// Mid-run member-link failure: partition member 0 during the flood and
	// account who carried bytes during the outage.
	var rerouted, dead int64 // by the surviving and the partitioned member
	if sc.linkFailure {
		env.Process("chaos", func(p *sim.Proc) {
			p.Sleep(150 * time.Millisecond)
			l0, l1 := fab.Links()[0], fab.Links()[1]
			pre0, pre1 := l0.SentBytes(), l1.SentBytes()
			l0.Partition()
			p.Sleep(300 * time.Millisecond)
			dead, rerouted = l0.SentBytes()-pre0, l1.SentBytes()-pre1
			l0.Heal()
		})
	}

	// Victim driver: run the orders, measure, drain, verify every tenant.
	var meanRPO, maxRPO, catchUp time.Duration
	var consistent bool // every tenant's applied image is a consistent cut
	err = runProc(env, "victim", 0, func(p *sim.Proc) error {
		start := p.Now()
		if err := shop.Run(p, orders); err != nil {
			return fmt.Errorf("victim orders: %w", err)
		}
		if shop.Completed.Value() == 0 {
			return fmt.Errorf("victim placed no orders")
		}
		rpo := reg.Series("rpo", telemetry.L("tenant", "victim")).Window(start, p.Now())
		meanRPO, maxRPO = time.Duration(rpo.Mean()), time.Duration(rpo.Max())
		cuStart := p.Now()
		vg.CatchUp(p)
		catchUp = p.Now() - cuStart

		// Freeze the victim's backup image and verify the consistent cut.
		grp, err := backup.CreateSnapshotGroup("verify-"+sc.name, []storage.VolumeID{"v-sales", "v-stock"})
		if err != nil {
			return err
		}
		salesView, stockView, err := openViews(p, grp, "v-", "verify")
		if err != nil {
			return err
		}
		rep := consistency.Verify(salesView, stockView, shop.SalesCommitOrder(), shop.StockCommitOrder())
		consistent = !rep.Collapsed() && rep.OrderingOK() &&
			rep.LostSalesTxns == 0 && rep.LostStockTxns == 0

		// Drain the neighbors fully and check their cuts too: every copy
		// session must have applied everything it journaled, in order.
		for _, g := range others {
			g.CatchUp(p)
		}
		for _, g := range others {
			if g.Backlog() != 0 || g.OrderBreaks() != 0 {
				consistent = false
			}
		}
		for _, g := range append(others, vg) {
			g.Stop()
		}
		fab.Stop()
		return nil
	})
	if err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	t.AddRow(sc.name, len(sc.links), meanRPO, maxRPO, victimPath.MeanTransferTime(), victimPath.MeanQueueDelay(),
		catchUp, float64(noisyPath.Bytes())/1e6, consistent)
	if sc.linkFailure {
		// The survivor carries the outage's traffic; the dead member at
		// most the batch it had in flight.
		if rerouted == 0 || dead*5 > rerouted {
			return fmt.Errorf("outage: surviving member carried %dB, dead member %dB", rerouted, dead)
		}
		t.AddNote("link-failure: member 0 down 150ms-450ms; surviving member carried %.2fMB (dead member %.2fMB)",
			float64(rerouted)/1e6, float64(dead)/1e6)
	}
	return nil
}
