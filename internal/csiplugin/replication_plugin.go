package csiplugin

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/fabric"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// SitePair wires the replication plugin to both sites' resources.
type SitePair struct {
	MainAPI     *platform.APIServer
	BackupAPI   *platform.APIServer
	MainArray   *storage.Array
	BackupArray *storage.Array
	// LanePaths hands the drain lanes of a namespace's group one inter-site
	// transfer path each (lane k drains journal shard k; a raw
	// *netlink.Link works) — how per-tenant QoS classes attach, and what
	// lets lanes transfer concurrently instead of serializing on one path.
	LanePaths func(namespace string, lanes int) []fabric.Path
	// Telemetry, when set, has every created engine register its RPO and
	// lane probes under the source namespace, and instruments the plugin's
	// own controller.
	Telemetry *telemetry.Registry
	// Engines is the main site's engine registry: the running engine of
	// each configured CR, by CR name (one consistency group, one journal,
	// one engine).
	Engines replication.Registry
}

// ReplicationPlugin reconciles ReplicationGroup custom resources on the
// main site into running ADC: journal volumes, consistency-group
// membership, backup-site volumes with PV/PVC objects, initial copy, and
// the drain. Deleting the CR tears the configuration down.
type ReplicationPlugin struct {
	env   *sim.Env
	sites SitePair
	cfg   replication.Config
	ctrl  *platform.Controller
}

// NewReplicationPlugin builds the plugin; Start launches its controller.
func NewReplicationPlugin(env *sim.Env, sites SitePair, cfg replication.Config) *ReplicationPlugin {
	rp := &ReplicationPlugin{env: env, sites: sites, cfg: cfg}
	rp.ctrl = platform.NewController(env, sites.MainAPI, "replication-plugin",
		platform.KindReplicationGroup, rp.reconcile, sites.Telemetry)
	return rp
}

// Start launches the controller, first queueing every CR and every engine
// in the registry: a plugin started fresh over a running site reconciles
// what it missed, and tears down an engine whose CR went meanwhile.
func (rp *ReplicationPlugin) Start() {
	for _, obj := range rp.sites.MainAPI.CachedList(platform.KindReplicationGroup, "") {
		rp.ctrl.Enqueue(obj.GetMeta().Key())
	}
	for _, name := range rp.sites.Engines.Names() {
		rp.ctrl.Enqueue(groupKey(name))
	}
	rp.ctrl.Start()
}

// groupKey is the key of the ReplicationGroup CR of that name.
func groupKey(name string) platform.ObjectKey {
	return platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: name}
}

// Stop halts the controller (running replication groups keep draining; use
// Groups to stop them explicitly).
func (rp *ReplicationPlugin) Stop() { rp.ctrl.Stop() }

// Groups returns the running replication engine for a CR name: one element,
// or nil (nothing allocated) while the CR is unconfigured or gone.
func (rp *ReplicationPlugin) Groups(name string) []*replication.Group {
	if g, ok := rp.sites.Engines[name]; ok {
		return []*replication.Group{g}
	}
	return nil
}

// NamespaceOf returns the namespace a registered engine replicates: its
// CR's source namespace, or, once the CR is gone, the namespace its CR name
// was minted from ("" for an engine the registry does not hold).
func (rp *ReplicationPlugin) NamespaceOf(g *replication.Group) string {
	name := strings.TrimSuffix(g.Name(), "-0")
	if rp.sites.Engines[name] != g {
		return ""
	}
	if obj, ok := rp.sites.MainAPI.Cached(groupKey(name)); ok {
		return obj.(*platform.ReplicationGroup).Spec.SourceNamespace
	}
	ns, _ := operator.NamespaceOfGroup(name)
	return ns
}

// AllGroups returns every running engine in CR-name order, typed for the
// benchmark's counters: they type-assert on an element, so it is an
// interface. Site-wide walks use the registry's Sorted.
func (rp *ReplicationPlugin) AllGroups() []counted {
	names := rp.sites.Engines.Names()
	out := make([]counted, len(names))
	for i, name := range names {
		out[i] = rp.sites.Engines[name]
	}
	return out
}

// counted is what the benchmark's counters read of an engine.
type counted interface {
	AppliedRecords() int64
	AppliedBytes() int64
	Lanes() int
}

// reconcile reads the informer cache (APIServer.Cached); only its writes
// are round trips.
func (rp *ReplicationPlugin) reconcile(p *sim.Proc, key platform.ObjectKey) error {
	obj, ok := rp.sites.MainAPI.Cached(key)
	if !ok {
		return rp.teardown(p, key.Name)
	}
	rg := obj.(*platform.ReplicationGroup)
	if g, ok := rp.sites.Engines[rg.Name]; ok {
		// An engine's membership is fixed when it is configured: a claim that
		// joined the namespace afterwards is in the spec but unjournaled and
		// has no backup twin. Fail the CR by the claim's name rather than
		// report Ready for a group that does not cover its application. The
		// engine keeps draining its members; dropping the claim brings the CR
		// back. A claim that LEFT is no drift (teardown shrinks the list).
		for _, pvcName := range rg.Spec.PVCNames {
			if slices.Contains(g.Members(), VolumeIDForClaim(rg.Spec.SourceNamespace, pvcName)) {
				continue
			}
			msg := fmt.Sprintf("claim %s/%s joined after replication was configured: not in consistency group %s, not replicated",
				rg.Spec.SourceNamespace, pvcName, g.JournalID())
			if rg.Status.Phase == platform.GroupFailed && rg.Status.Message == msg {
				return nil // already reported: a second write would only requeue us
			}
			return rp.setPhase(p, rg, platform.GroupFailed, msg)
		}
		if rg.Status.Phase != platform.GroupReady {
			// Partially configured from an earlier attempt, or the claim that
			// failed the CR is gone from the spec; report Ready.
			return rp.setPhase(p, rg, platform.GroupReady, "replication running")
		}
		// Configured, covered and Ready: the only reconcilable drift left is
		// the declared shard count (a ShardsLabel change threaded through the
		// operator). Unchanged counts return without a single API write.
		return rp.maybeReshard(p, rg, g)
	}

	// Resolve every claim to its source PV: its volume, and the PV name the
	// backup twin takes.
	type member struct {
		claim *platform.PersistentVolumeClaim
		pv    *platform.PersistentVolume
	}
	members := make([]member, 0, len(rg.Spec.PVCNames))
	for _, pvcName := range rg.Spec.PVCNames {
		claim, pv, err := ResolveClaimVolume(rp.sites.MainAPI, rg.Spec.SourceNamespace, pvcName)
		if err != nil {
			_ = rp.setPhase(p, rg, platform.GroupPending, err.Error())
			return err // retry until the provisioner binds the claim
		}
		members = append(members, member{claim: claim, pv: pv})
	}
	if len(members) == 0 {
		return rp.setPhase(p, rg, platform.GroupFailed, "no PVCs to replicate")
	}

	// Provision backup-site twins: volume + PV + PVC so the backup console
	// lists them (Fig. 4). Twins are read-only while replication runs.
	for _, m := range members {
		volID, size := m.pv.Spec.VolumeID, m.pv.Spec.SizeBlocks
		if _, err := rp.sites.BackupArray.CreateVolume(volID, size); err != nil && !errors.Is(err, storage.ErrVolumeExists) {
			return err
		}
		tv, err := rp.sites.BackupArray.Volume(volID)
		if err != nil {
			return err
		}
		tv.SetReadOnly(true)
		pv := &platform.PersistentVolume{
			Meta:   platform.Meta{Kind: platform.KindPV, Name: m.pv.Name},
			Spec:   platform.PVSpec{ArrayName: rp.sites.BackupArray.Name(), VolumeID: volID, SizeBlocks: size},
			Status: platform.PVStatus{Phase: platform.VolumeBound, ClaimName: m.claim.Name},
		}
		if err := rp.sites.BackupAPI.Create(p, pv); err != nil && !errors.Is(err, platform.ErrExists) {
			return err
		}
		pvc := &platform.PersistentVolumeClaim{
			Meta:   platform.Meta{Kind: platform.KindPVC, Namespace: rg.Spec.SourceNamespace, Name: m.claim.Name},
			Spec:   platform.PVCSpec{SizeBlocks: size, Tenant: m.claim.Spec.Tenant},
			Status: platform.PVCStatus{VolumeName: pv.Name},
		}
		if err := rp.sites.BackupAPI.Create(p, pvc); err != nil && !errors.Is(err, platform.ErrExists) {
			return err
		}
	}

	if err := rp.setPhase(p, rg, platform.GroupSyncing, "initial copy"); err != nil {
		return err
	}

	// One consistency group over every member, its journal split across
	// JournalShards shards and drained on as many lanes, each on its own
	// fabric path. Goldens, probe keys and chaos logs print both "-0" names.
	journalID := "jnl-" + rg.Name + "-0"
	vols := make([]storage.VolumeID, len(members))
	for i, m := range members {
		vols[i] = m.pv.Spec.VolumeID
	}
	journal, err := rp.sites.MainArray.CreateConsistencyGroup(journalID, vols, max(rg.Spec.JournalShards, 1))
	if errors.Is(err, storage.ErrJournalExists) {
		journal, err = rp.sites.MainArray.ShardedJournal(journalID)
	}
	if err != nil {
		return err
	}
	g, err := replication.NewGroup(rp.env, rg.Name+"-0", journal, rp.sites.BackupArray,
		rp.sites.LanePaths(rg.Spec.SourceNamespace, journal.ShardCount()), rp.cfg)
	if err != nil {
		return err
	}
	if err := g.InitialCopy(p, rp.sites.MainArray); err != nil {
		return err
	}
	g.Instrument(rp.sites.Telemetry, rg.Spec.SourceNamespace)
	g.Start()
	rp.sites.Engines[rg.Name] = g

	// Refresh the CR (phase Syncing bumped its version) and mark Ready: a
	// status-only write, so a struct copy (Update copies what it stores).
	cur, ok := rp.sites.MainAPI.Cached(key)
	if !ok {
		return &platform.StatusError{Err: platform.ErrNotFound, Key: key}
	}
	next := *cur.(*platform.ReplicationGroup)
	next.Status = platform.ReplicationGroupStatus{Phase: platform.GroupReady, JournalID: journalID, Message: "replication running"}
	return rp.sites.MainAPI.Update(p, &next)
}

// maybeReshard diffs the CR's declared shard count against the running
// engine's lane count and, when they differ, has the engine reconfigure its
// lane set in place (epoch-barrier migration, untouched lanes keep
// draining). The reconcile does not wait for the migration window to settle
// — the engine drains it in the background and callers observe
// Resharding()/Lanes().
func (rp *ReplicationPlugin) maybeReshard(p *sim.Proc, rg *platform.ReplicationGroup, cur *replication.Group) error {
	from, want := cur.Lanes(), max(rg.Spec.JournalShards, 1)
	if from == want || cur.Stopped() || cur.FailedOver() {
		return nil
	}
	if _, err := cur.Reshard(p, rp.sites.LanePaths(rg.Spec.SourceNamespace, want)); err != nil {
		return err
	}
	return rp.setPhase(p, rg, platform.GroupReady,
		fmt.Sprintf("replication running (resharded %d -> %d lanes)", from, want))
}

// teardown stops and forgets the engine configured for a deleted CR.
func (rp *ReplicationPlugin) teardown(p *sim.Proc, name string) error {
	g, ok := rp.sites.Engines[name]
	if !ok {
		return nil
	}
	g.Stop()
	if err := rp.sites.MainArray.DeleteShardedJournal(g.JournalID()); err != nil && !errors.Is(err, storage.ErrNoSuchJournal) {
		return err
	}
	delete(rp.sites.Engines, name)
	return nil
}

// setPhase patches the CR status, tolerating concurrent updates by
// re-reading on conflict. rg (a shared read-only object) only names the CR;
// callers that go on to write it re-read it. The write copies the struct
// only: the spec it shares with the stored CR is never touched.
func (rp *ReplicationPlugin) setPhase(p *sim.Proc, rg *platform.ReplicationGroup, phase platform.GroupPhase, msg string) error {
	key := rg.Key()
	for {
		cur, ok := rp.sites.MainAPI.Cached(key)
		if !ok {
			return &platform.StatusError{Err: platform.ErrNotFound, Key: key}
		}
		c := *cur.(*platform.ReplicationGroup)
		c.Status.Phase = phase
		c.Status.Message = msg
		err := rp.sites.MainAPI.Update(p, &c)
		if errors.Is(err, platform.ErrConflict) {
			continue
		}
		return err
	}
}
