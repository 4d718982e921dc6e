// Package experiments contains one harness per paper artifact (Figures 1-6
// and the §I claims) plus the scale-out experiments that grow past the
// paper, each regenerating its result as a plain-text table. DESIGN.md
// carries the experiment index (E1-E18). Every harness returns its Table,
// each row added where its values are measured, and fails on a value its
// table does not print that breaks the experiment's shape; its shape test
// reads the cells that table prints. cmd/experiments runs them all and
// `make tables-check` pins their tables; the *_test.go files beside this one
// assert each result's shape.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Mode selects the replication configuration under test.
type Mode string

// Replication modes compared across experiments.
const (
	// ModeNone is the no-replication baseline.
	ModeNone Mode = "none"
	// ModeADC is asynchronous data copy with a consistency group — the
	// paper's configuration.
	ModeADC Mode = "ADC+CG"
	// ModeADCNoCG is asynchronous data copy with one journal per volume —
	// the collapse-prone configuration.
	ModeADCNoCG Mode = "ADC-noCG"
	// ModeSDC is synchronous data copy — the related-work baseline (§V).
	ModeSDC Mode = "SDC"
)

// rig is the hand-wired two-site testbed the quantitative experiments use:
// it bypasses the container platform (E2 measures that separately) and
// configures storage replication directly, so latency measurements isolate
// the storage path.
type rig struct {
	env    *sim.Env
	main   *storage.Array
	backup *storage.Array
	links  *netlink.Pair
	mode   Mode

	groups []*replication.Group
	shop   *workload.Shop
}

// rigParams configures a rig build.
type rigParams struct {
	seed     int64
	mode     Mode
	link     netlink.Config
	storage  storage.Config
	repl     replication.Config
	volBlk   int64
	workload workload.Config
}

func (rp rigParams) withDefaults() rigParams {
	if rp.volBlk == 0 {
		rp.volBlk = 2048
	}
	if rp.link.BandwidthBps == 0 {
		rp.link.BandwidthBps = 1e9
	}
	return rp
}

// newRig builds the two-site testbed and opens the databases inside a
// bootstrap process. It returns with the simulation idle and the shop ready.
func newRig(params rigParams) (*rig, error) {
	params = params.withDefaults()
	env := sim.NewEnv(params.seed)
	r := &rig{
		env:    env,
		main:   storage.NewArray(env, "main", params.storage),
		backup: storage.NewArray(env, "backup", params.storage),
		links:  netlink.NewPair(env, params.link),
		mode:   params.mode,
	}
	if err := createTwins(r.main, r.backup, params.volBlk, "sales", "stock"); err != nil {
		return nil, err
	}
	if err := runProc(env, "bootstrap", 0, func(p *sim.Proc) error { return r.bootstrap(p, params) }); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rig) bootstrap(p *sim.Proc, params rigParams) error {
	salesVol, _ := r.main.Volume("sales")
	stockVol, _ := r.main.Volume("stock")

	// Wire replication BEFORE opening the databases so every write —
	// including formatting — replicates; no initial copy needed.
	var salesW, stockW db.BlockWriter = salesVol, stockVol
	switch r.mode {
	case ModeNone:
	case ModeADC:
		g, err := startADC(r.env, r.main, r.backup, "cg", []storage.VolumeID{"sales", "stock"},
			r.links.Forward, params.repl)
		if err != nil {
			return err
		}
		r.groups = []*replication.Group{g}
	case ModeADCNoCG:
		// Without a consistency group each volume pair is an independent
		// copy session: its own journal AND its own link-level session
		// (real arrays multiplex per-pair sessions whose delays vary
		// independently). The divergence between sessions is exactly what
		// lets the backup collapse.
		for _, vol := range []storage.VolumeID{"sales", "stock"} {
			g, err := startADC(r.env, r.main, r.backup, string(vol), []storage.VolumeID{vol},
				netlink.New(r.env, params.link), params.repl)
			if err != nil {
				return err
			}
			r.groups = append(r.groups, g)
		}
	case ModeSDC:
		bs, _ := r.backup.Volume("sales")
		bk, _ := r.backup.Volume("stock")
		salesW = replication.NewSyncVolume(salesVol, bs, r.links)
		stockW = replication.NewSyncVolume(stockVol, bk, r.links)
	default:
		return fmt.Errorf("experiments: unknown mode %q", r.mode)
	}

	wcfg := params.workload
	wcfg.Seed = params.seed
	var err error
	r.shop, err = openShop(p, "", salesW, stockW, wcfg)
	return err
}

// startADC wires vols (same IDs on both arrays) into a one-lane consistency
// group replicated over path, and starts its drain.
func startADC(env *sim.Env, main, backup *storage.Array, name string, vols []storage.VolumeID,
	path fabric.Path, cfg replication.Config) (*replication.Group, error) {
	j, err := main.CreateConsistencyGroup("cg-"+name, vols, 1)
	if err != nil {
		return nil, err
	}
	g, err := replication.NewGroup(env, name, j, backup, []fabric.Path{path}, cfg)
	if err != nil {
		return nil, err
	}
	g.Start()
	return g, nil
}

// runOrders drives n orders to completion and returns the simulated span
// from the first order to the last one's commit. The environment still runs
// until idle, but the replication drain tail after the last order is
// catch-up, not business processing, and stays out of the span.
func (r *rig) runOrders(n int) (time.Duration, error) {
	start, end := r.env.Now(), r.env.Now()
	err := runProc(r.env, "orders", 0, func(p *sim.Proc) error {
		err := r.shop.Run(p, n)
		end = p.Now()
		return err
	})
	return end - start, err
}

// rigTenant labels the probed series of the rig's ADC+CG group.
var rigTenant = telemetry.L("tenant", "cg")

// probe samples the ADC+CG group's telemetry probes ("rpo",
// "backlog.records") at every multiple of period from now on.
func (r *rig) probe(period time.Duration) *telemetry.Registry {
	reg := telemetry.New(r.env, telemetry.Config{SamplePeriod: period})
	r.groups[0].Instrument(reg, rigTenant.Value)
	return reg
}

// stop halts replication drains so the environment can go idle.
func (r *rig) stop() {
	for _, g := range r.groups {
		g.Stop()
	}
	r.env.Run(0)
}

// The steps the harnesses share, each written once.

// runProc spawns body as the process name, runs env to the horizon until
// (0: until idle) and returns body's error. A harness whose processes share
// one error keeps its own variable instead.
func runProc(env *sim.Env, name string, until time.Duration, body func(*sim.Proc) error) error {
	var err error
	env.Process(name, func(p *sim.Proc) { err = body(p) })
	env.Run(until)
	return err
}

// quiesce stops sys's engines and controllers and runs its environment to
// the horizon until (0: until idle), so repeated runs in one process do not
// accumulate parked simulation processes.
func quiesce(sys *core.System, until time.Duration) {
	sys.Stop()
	sys.Env.Run(until)
}

// createTwins creates each volume, blocks long, on main and on backup.
func createTwins(main, backup *storage.Array, blocks int64, ids ...storage.VolumeID) error {
	for _, id := range ids {
		for _, a := range []*storage.Array{main, backup} {
			if _, err := a.CreateVolume(id, blocks); err != nil {
				return err
			}
		}
	}
	return nil
}

// openShop opens the databases prefix+"sales" and prefix+"stock" on the
// given writers (formatting fresh volumes) and wires a shop over them.
func openShop(p *sim.Proc, prefix string, sales, stock db.BlockWriter, cfg workload.Config) (*workload.Shop, error) {
	salesDB, err := db.Open(p, prefix+"sales", sales, db.Config{})
	if err != nil {
		return nil, err
	}
	stockDB, err := db.Open(p, prefix+"stock", stock, db.Config{})
	if err != nil {
		return nil, err
	}
	return workload.NewShop(p.Env(), salesDB, stockDB, cfg), nil
}

// openViews recovers read-only views of the databases on group's members
// prefix+"sales" and prefix+"stock", each named member+"@"+at.
func openViews(p *sim.Proc, group *storage.SnapshotGroup, prefix, at string) (sales, stock *db.View, err error) {
	if sales, err = db.OpenView(p, prefix+"sales@"+at, group.Snapshot(storage.VolumeID(prefix+"sales")), db.Config{}); err != nil {
		return nil, nil, err
	}
	stock, err = db.OpenView(p, prefix+"stock@"+at, group.Snapshot(storage.VolumeID(prefix+"stock")), db.Config{})
	return sales, stock, err
}

// thinLinks returns n identical fabric members, each a deliberately thin
// 2 ms / 4 MB/s pipe: one 64-record batch of 4 KiB blocks serializes in
// ~67 ms, so the drain, not the array, caps throughput and a single lane is
// visibly the bottleneck.
func thinLinks(n int) []netlink.Config {
	links := make([]netlink.Config, n)
	for i := range links {
		links[i] = netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 4e6}
	}
	return links
}
