// Package core assembles the complete demonstration system of §IV: a main
// site and a backup site, each with a container platform and an external
// storage array, joined by an inter-site link. The main site runs the
// namespace operator and the storage/replication plugins; the backup site's
// array takes the group snapshots directly. On top of the sites, core
// implements the demo's three steps as library calls:
//
//  1. backup configuration — tag the namespace, let the operator and the
//     replication plugin configure ADC with a consistency group;
//  2. snapshot development — group-snapshot the backup volumes;
//  3. data analytics — open read-only databases on the snapshot volumes.
//
// Plus the step the demo motivates but cannot show on stage: failover, the
// backup-site recovery that works because the data is consistent.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/csiplugin"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ErrTimeout reports that a wait helper gave up.
var ErrTimeout = errors.New("core: timed out")

// StorageClassName is the class the demo's claims use.
const StorageClassName = "vsp-replicated"

// Config assembles a System. Zero values take sensible demo defaults.
type Config struct {
	// Seed drives the deterministic simulation.
	Seed int64
	// Fabric configures the inter-site fabric: Fabric.Links is the
	// member-link roster (heterogeneous members allowed; default one 5ms /
	// 1GB/s link); Fabric.Classes adds QoS scheduling at the ingress;
	// Fabric.WindowPerLink > 1 pipelines scheduled dispatch so each member
	// keeps that many transfers propagating concurrently (high-BDP links,
	// E18). The zero value is a single-member passthrough fabric.
	Fabric fabric.Config
	// Storage configures both arrays.
	Storage storage.Config
	// Telemetry, when set, enables the sim-time observability plane: a
	// registry of instruments (per-tenant RPO probes, lane staging, fabric
	// queue depths, controller latency) plus span tracing, exportable as
	// Chrome trace-event JSON. Nil keeps telemetry disabled at zero cost.
	Telemetry *telemetry.Config
	// SLOClasses registers the deployment's service-level policy classes.
	// A TenantSpec references one by name (Spec.SLOClass); the autopilot
	// reads the class for the tenant's RPO target, shard bounds, and
	// admission priority, and a tenant without an explicit QoSClass rides
	// the fabric class of the same name.
	SLOClasses []platform.SLOClass
	// DB tunes the databases ProvisionTenant opens.
	DB db.Config
	// VolumeBlocks is the size of each provisioned volume (default 2048).
	VolumeBlocks int64
	// ProvisionTimeout bounds ProvisionTenant / DecommissionTenant waits
	// (default 30s; fleets provisioning many tenants at once raise it).
	ProvisionTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Fabric.Links) == 0 {
		c.Fabric.Links = []netlink.Config{{Propagation: 5 * time.Millisecond, BandwidthBps: 1e9}}
	}
	if c.VolumeBlocks <= 0 {
		c.VolumeBlocks = 2048
	}
	return c
}

// Site is one of the two sites: a container platform plus a storage array.
type Site struct {
	Name  string
	API   *platform.APIServer
	Array *storage.Array
	// Engines holds the replication engines that drain this site's array:
	// the replication plugin's, by CR name, on the main site; Failback's
	// reverse groups, by their own name, on the backup site. It outlives
	// the controllers that start them.
	Engines replication.Registry
	// Snapshots is always nil; it stays only because benchmark/ reads
	// Snapshots() off it (0 on a nil controller), and goes with the
	// benchmark unfreeze (ROADMAP item 1).
	Snapshots *csiplugin.SnapshotController
}

// newSite builds a site: its API server, its array and its engine registry.
func newSite(env *sim.Env, name, array string, cfg storage.Config) *Site {
	return &Site{Name: name, API: platform.NewAPIServer(env, platform.APIConfig{}),
		Array: storage.NewArray(env, array, cfg), Engines: replication.Registry{}}
}

// System is the full two-site demonstration system.
type System struct {
	Env    *sim.Env
	Cfg    Config
	Main   *Site
	Backup *Site
	// Links is member 0 of the fabric — kept as the operator-facing pair
	// so single-link chaos (Partition/Heal/RTT) reads as before.
	Links  *netlink.Pair
	Fabric *fabric.Interconnect

	// Telemetry is the system's instrument registry; nil when Config left
	// telemetry disabled.
	Telemetry *telemetry.Registry

	Operator    *operator.Operator
	Provisioner *csiplugin.Provisioner
	Replication *csiplugin.ReplicationPlugin

	// Tenant lifecycle (tenant.go): the controller reconciling Tenant
	// specs and its one record per namespace, rebuilt from the store and
	// the engine registry whenever the controller starts.
	tenantCtrl *platform.Controller
	tenants    map[string]tenant

	// SLO policy registry (Config.SLOClasses, defaults applied) and the
	// active lane-placement policy (SetPlacement; nil = any member link,
	// the dispatchers' choice).
	sloClasses map[string]platform.SLOClass
	placement  PlacementPolicy
}

// NewSystem builds and starts the demonstration system. The returned
// system's controllers run as simulation processes; drive the system from
// processes on sys.Env and advance time with sys.Env.Run.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	env := sim.NewEnv(cfg.Seed)
	sys := &System{
		Env:        env,
		Cfg:        cfg,
		Main:       newSite(env, "main", "vsp-main", cfg.Storage),
		Backup:     newSite(env, "backup", "vsp-backup", cfg.Storage),
		sloClasses: make(map[string]platform.SLOClass, len(cfg.SLOClasses)),
	}
	for _, sc := range cfg.SLOClasses {
		sys.sloClasses[sc.Name] = sc.WithDefaults()
	}
	if cfg.Telemetry != nil {
		sys.Telemetry = telemetry.New(env, *cfg.Telemetry)
	}
	// Inter-site fabric, one link pair per Fabric.Links member. Member 0's
	// pair stays exposed as sys.Links.
	fwd := make([]*netlink.Link, len(cfg.Fabric.Links))
	rev := make([]*netlink.Link, len(cfg.Fabric.Links))
	for i, lc := range cfg.Fabric.Links {
		pr := netlink.NewPair(env, lc)
		fwd[i], rev[i] = pr.Forward, pr.Reverse
	}
	sys.Links = &netlink.Pair{Forward: fwd[0], Reverse: rev[0]}
	sys.Fabric = fabric.NewInterconnect(env, cfg.Fabric, fwd, rev)
	sys.Fabric.Forward.Instrument(sys.Telemetry, "fwd")
	sys.Fabric.Reverse.Instrument(sys.Telemetry, "rev")
	sys.Provisioner = csiplugin.NewProvisioner(env, sys.Main.API,
		map[string]*storage.Array{sys.Main.Array.Name(): sys.Main.Array})
	sys.Replication = sys.newReplicationPlugin()
	sys.Operator = operator.New(env, sys.Main.API, sys.Telemetry)
	sys.tenantCtrl = sys.newTenantController()

	sys.Provisioner.Start()
	sys.Replication.Start()
	sys.Operator.Start()
	sys.tenantCtrl.Start()

	env.Process("bootstrap", func(p *sim.Proc) {
		if err := sys.Main.API.Create(p, &platform.StorageClass{
			Meta:        platform.Meta{Kind: platform.KindStorageClass, Name: StorageClassName},
			Provisioner: "csi.vsp.sim",
			ArrayName:   sys.Main.Array.Name(),
		}); err != nil {
			panic(fmt.Sprintf("core: bootstrap: %v", err))
		}
	})
	return sys
}

// newReplicationPlugin builds a replication plugin over both sites. It keeps
// nothing of its own: the engines it runs are the main site's.
func (sys *System) newReplicationPlugin() *csiplugin.ReplicationPlugin {
	return csiplugin.NewReplicationPlugin(sys.Env, csiplugin.SitePair{
		MainAPI:     sys.Main.API,
		BackupAPI:   sys.Backup.API,
		MainArray:   sys.Main.Array,
		BackupArray: sys.Backup.Array,
		LanePaths:   sys.lanePathsFor,
		Telemetry:   sys.Telemetry,
		Engines:     sys.Main.Engines,
	}, replication.Config{})
}

// Stop quiesces the system's background processes: every controller, every
// running replication engine, and the fabric dispatchers. Call it (then
// drain with Env.Run) when a run is complete and the system will be
// discarded. Simulated processes are coroutines parked on events, so a
// system that is dropped without Stop leaks its whole process set — and a
// benchmark iterating over fresh systems accumulates those leaks into
// GC/scheduler cost that corrupts later measurements.
func (sys *System) Stop() {
	sys.tenantCtrl.Stop()
	sys.Operator.Stop()
	sys.Provisioner.Stop()
	sys.Replication.Stop()
	for _, g := range append(sys.Main.Engines.Sorted(), sys.Backup.Engines.Sorted()...) {
		g.Stop()
	}
	sys.Fabric.Stop()
}

// BusinessProcess is the deployed e-commerce application of §II: a
// transactional app over a sales database and a stock database, each on its
// own claim in one namespace.
type BusinessProcess struct {
	Namespace string
	PVCNames  []string
	Sales     *db.DB
	Stock     *db.DB
	Shop      *workload.Shop
}

// provisionTimeout is the default wait bound for tenant lifecycle calls.
func (sys *System) provisionTimeout() time.Duration {
	if sys.Cfg.ProvisionTimeout > 0 {
		return sys.Cfg.ProvisionTimeout
	}
	return 30 * time.Second
}

// openDB opens the database on a bound claim's volume, named by the PV the
// informer cache holds for it.
func (sys *System) openDB(p *sim.Proc, namespace, claim string) (*db.DB, error) {
	_, pv, err := csiplugin.ResolveClaimVolume(sys.Main.API, namespace, claim)
	if err != nil {
		return nil, err
	}
	vol, err := sys.Main.Array.Volume(pv.Spec.VolumeID)
	if err != nil {
		return nil, err
	}
	return db.Open(p, namespace+"/"+claim, vol, sys.Cfg.DB)
}

// pollInterval is the initial status-poll period of the Wait* helpers and
// pollCap the exponential-backoff ceiling. Backing off keeps the reaction
// latency of a short wait at one pollInterval while cutting the scheduler
// steps a long wait burns — at fleet scale, ready-polling is otherwise the
// dominant event source.
const (
	pollInterval = 10 * time.Millisecond
	pollCap      = 160 * time.Millisecond
)

// waitObject blocks until check reports done on the keyed object's state (a
// missing object just keeps waiting), or the timeout expires (ErrTimeout).
// The watch is registered before the initial read so no transition can slip
// between them; duplicate deliveries only re-run check.
func (sys *System) waitObject(p *sim.Proc, key platform.ObjectKey, timeout time.Duration,
	check func(platform.Object) (bool, error)) error {
	deadline := p.Now() + timeout
	w := sys.Main.API.WatchKey(key)
	defer w.Stop()
	obj, err := sys.Main.API.Get(p, key)
	if err == nil {
		if done, cerr := check(obj); done {
			return cerr
		}
	} else if !errors.Is(err, platform.ErrNotFound) {
		return err
	}
	for {
		remain := deadline - p.Now()
		if remain <= 0 {
			return ErrTimeout
		}
		ev, ok := w.NextTimeout(p, remain)
		if !ok {
			return ErrTimeout
		}
		if ev.Type == platform.Deleted {
			continue
		}
		if done, cerr := check(ev.Object); done {
			return cerr
		}
	}
}

// PlacementPolicy decides which fabric member link a tenant's forward
// drain lane lands on. It is consulted lazily, when the lane's path is
// first created (a joiner's first drain, a reshard's added lanes): return
// a member-link index to pin the lane there, or a negative value to keep
// the implicit default (any member, the dispatchers' choice). The arrays
// are degenerate in the two-site system — one main array holds every
// tenant — so placement today chooses fabric links; N-site array placement
// extends this interface.
//
// Implementations must be deterministic functions of simulation state:
// placement runs inside reconcile steps and is part of the reproducible
// schedule.
type PlacementPolicy interface {
	PlaceLane(namespace string, lane int, f *fabric.Fabric) int
}

// SetPlacement installs (or, with nil, removes) the lane-placement policy.
// Only paths created after the call are affected; existing lanes keep
// their binding. The autopilot wires its policy through this hook.
func (sys *System) SetPlacement(pol PlacementPolicy) { sys.placement = pol }

// SLOClassFor returns the registered SLO class by name.
func (sys *System) SLOClassFor(name string) (platform.SLOClass, bool) {
	sc, ok := sys.sloClasses[name]
	return sc, ok
}

// SLOClasses returns every registered SLO class, sorted by name so callers
// (the autopilot's admission sweep above all) iterate deterministically.
func (sys *System) SLOClasses() []platform.SLOClass {
	out := make([]platform.SLOClass, 0, len(sys.sloClasses))
	for _, sc := range sys.sloClasses {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lanePathsFor returns the namespace's forward (main→backup) fabric paths for
// drain lanes 0..lanes-1, creating the missing ones — consulting the
// placement policy for a member-link pin as it does. Each lane gets its own
// counted path so per-lane bytes and queueing delay stay observable.
func (sys *System) lanePathsFor(namespace string, lanes int) []fabric.Path {
	t := sys.tenants[namespace]
	for lane := len(t.lanes); lane < lanes; lane++ {
		owner := "adc:" + namespace
		if lane > 0 {
			owner += ":s" + strconv.Itoa(lane)
		}
		link := -1
		if sys.placement != nil {
			link = sys.placement.PlaceLane(namespace, lane, sys.Fabric.Forward)
		}
		t.lanes = append(t.lanes, sys.Fabric.Forward.PathOn(sys.classOf(namespace, t), owner, link))
	}
	sys.tenants[namespace] = t
	out := make([]fabric.Path, lanes)
	for i := range out {
		out[i] = t.lanes[i]
	}
	return out
}

// TenantPath returns the forward fabric path of a namespace that has only
// ever drained on one lane (nil otherwise) — the per-tenant interference
// counters. A namespace that has run more lanes reports all of them through
// TenantLanePaths instead, so summing both accessors counts every path once.
func (sys *System) TenantPath(namespace string) *fabric.TenantPath {
	if ps := sys.tenants[namespace].lanes; len(ps) == 1 {
		return ps[0]
	}
	return nil
}

// TenantLanePaths returns the per-lane forward paths of a namespace that has
// run more than one drain lane (nil otherwise; see TenantPath).
func (sys *System) TenantLanePaths(namespace string) []*fabric.TenantPath {
	if ps := sys.tenants[namespace].lanes; len(ps) > 1 {
		return ps
	}
	return nil
}

// Groups returns the running replication engines for a namespace.
func (sys *System) Groups(namespace string) []*replication.Group {
	return sys.Replication.Groups(operator.GroupNameFor(namespace))
}

// CatchUp waits for every group of the namespace to drain fully.
func (sys *System) CatchUp(p *sim.Proc, namespace string) bool {
	ok := true
	for _, g := range sys.Groups(namespace) {
		if !g.CatchUp(p) {
			ok = false
		}
	}
	return ok
}

// RPO returns the worst (largest) RPO across the namespace's groups.
func (sys *System) RPO(namespace string) time.Duration {
	var worst time.Duration
	for _, g := range sys.Groups(namespace) {
		if r := g.RPO(sys.Env.Now()); r > worst {
			worst = r
		}
	}
	return worst
}

// Backlog returns the total un-applied journal records for the namespace.
func (sys *System) Backlog(namespace string) int {
	var n int
	for _, g := range sys.Groups(namespace) {
		n += g.Backlog()
	}
	return n
}
