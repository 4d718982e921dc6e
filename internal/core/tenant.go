// Tenant lifecycle: the declarative provisioning surface of the system.
//
// A tenant is declared as a platform.Tenant object (namespace, claims, QoS
// class, journal shards, backup on/off). The tenant controller — built on
// the same controller runtime as the operator and the CSI plugins —
// reconciles spec to world: it creates the namespace and claims, registers
// the tenant's fabric QoS class, and threads the backup tag (plus the
// per-tenant shard-count label) to the namespace so the operator and the
// replication plugin do the rest. Deleting the Tenant object reconciles the
// other way: the namespace goes, the operator removes the ReplicationGroup,
// the replication plugin detaches and deletes the journal (or its shards),
// the provisioner unwinds claim volumes, and this controller reclaims the
// backup-site twins — until both arrays report zero residue for the tenant.
//
// ProvisionTenant and DecommissionTenant are the blocking client calls:
// submit the spec (or its deletion) and wait for the controller to converge.
// ApplyTenant, UpdateTenantSpec and WaitTenantCondition (apply.go) are the
// same surface without the wait folded in. A namespace tagged by hand with
// no Tenant object — the paper's literal operation — is the operator's
// alone: this controller never reconciles it.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/csiplugin"
	"repro/internal/fabric"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// tenantKey names the cluster-scoped Tenant object for a namespace.
func tenantKey(namespace string) platform.ObjectKey {
	return platform.ObjectKey{Kind: platform.KindTenant, Name: namespace}
}

// tenant is the system's record of one namespace: the ReplicationGroup key
// of a managed tenant (zero for a namespace the controller does not manage)
// and the forward path of every drain lane it has run.
type tenant struct {
	group platform.ObjectKey
	lanes []*fabric.TenantPath
}

// managed returns the namespace's ReplicationGroup key and whether the
// tenant controller manages it.
func (sys *System) managed(ns string) (platform.ObjectKey, bool) {
	g := sys.tenants[ns].group
	return g, g.Name != ""
}

// manage marks the namespace managed and returns its ReplicationGroup key,
// formatted once and carried in the record.
func (sys *System) manage(ns string) platform.ObjectKey {
	t := sys.tenants[ns]
	if t.group.Name == "" {
		t.group = platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: operator.GroupNameFor(ns)}
		sys.tenants[ns] = t
	}
	return t.group
}

// specClass is the fabric class a spec asks for: its QoSClass, or else the
// class named like its registered SLO class ("" = the default class).
func (sys *System) specClass(spec platform.TenantSpec) string {
	if _, ok := sys.sloClasses[spec.SLOClass]; spec.QoSClass == "" && ok {
		return spec.SLOClass
	}
	return spec.QoSClass
}

// classOf is the fabric class a namespace's next path rides: its first
// lane's once it has drained, so every lane rides one class, and its
// spec's before that (the default class for a namespace with no Tenant).
func (sys *System) classOf(ns string, t tenant) string {
	if len(t.lanes) > 0 {
		return t.lanes[0].Class()
	}
	if obj, ok := sys.Main.API.Cached(tenantKey(ns)); ok {
		return sys.specClass(obj.(*platform.Tenant).Spec)
	}
	return ""
}

// newTenantController builds the tenant controller: the Tenant watch plus
// ReplicationGroup/PVC/Namespace watches mapped back to tenant keys so
// status converges on events instead of polling. All four kinds feed one
// queue, so no two reconciles of one tenant ever run at once. The map
// functions filter on the managed tenants, so a namespace made straight on
// the API server (E2 tags one by hand) never costs a reconcile. The
// controller starts with the records rebuilt and their keys queued.
func (sys *System) newTenantController() *platform.Controller {
	managedKey := func(ns string) (platform.ObjectKey, bool) {
		_, ok := sys.managed(ns)
		return tenantKey(ns), ok
	}
	ctrl := platform.NewController(sys.Env, sys.Main.API, "tenant-controller",
		platform.KindTenant, sys.reconcileTenant, sys.Telemetry).
		Watches(platform.KindReplicationGroup, func(ev platform.Event) (platform.ObjectKey, bool) {
			ns, ok := operator.NamespaceOfGroup(ev.Object.GetMeta().Name)
			if !ok {
				return platform.ObjectKey{}, false
			}
			return managedKey(ns)
		}).
		Watches(platform.KindPVC, func(ev platform.Event) (platform.ObjectKey, bool) {
			return managedKey(ev.Object.GetMeta().Namespace)
		}).
		Watches(platform.KindNamespace, func(ev platform.Event) (platform.ObjectKey, bool) {
			return managedKey(ev.Object.GetMeta().Name)
		})
	sys.rebuildTenants(ctrl)
	return ctrl
}

// rebuildTenants makes the records from what the store and the engine
// registry hold, keeping nothing of a predecessor's: a namespace is managed
// while a claim on either site names its Tenant, and its lanes are its
// engine's. It queues every Tenant and every managed namespace, so a
// teardown left in backoff resumes.
func (sys *System) rebuildTenants(ctrl *platform.Controller) {
	sys.tenants = make(map[string]tenant)
	for _, obj := range sys.Main.API.CachedList(platform.KindTenant, "") {
		ctrl.Enqueue(obj.GetMeta().Key())
	}
	for _, api := range []*platform.APIServer{sys.Main.API, sys.Backup.API} {
		for _, obj := range api.CachedList(platform.KindPVC, "") {
			if ns := obj.(*platform.PersistentVolumeClaim).Spec.Tenant; ns != "" {
				sys.manage(ns)
				ctrl.Enqueue(tenantKey(ns))
			}
		}
	}
	for _, g := range sys.Main.Engines.Sorted() {
		ns := sys.Replication.NamespaceOf(g)
		t := sys.tenants[ns]
		for _, path := range g.Paths() {
			t.lanes = append(t.lanes, path.(*fabric.TenantPath))
		}
		sys.tenants[ns] = t
	}
}

// reconcileTenant is the level-triggered spec→world hook. It is idempotent:
// every step checks before it creates, and a deleted spec converges to a
// full teardown no matter how far provisioning had progressed. Its reads are
// the informer cache's (APIServer.Cached); only its writes are round trips.
func (sys *System) reconcileTenant(p *sim.Proc, key platform.ObjectKey) error {
	obj, ok := sys.Main.API.Cached(key)
	if !ok {
		rgKey, managed := sys.managed(key.Name)
		if !managed {
			return nil // never ours: an event for a namespace without a Tenant
		}
		return sys.teardownTenant(p, key.Name, rgKey)
	}
	tn := obj.(*platform.Tenant)
	ns := tn.Spec.Namespace
	if ns == "" {
		ns = tn.Name
	}
	if ns != tn.Name {
		return sys.setTenantStatus(p, tn, platform.TenantFailed,
			fmt.Sprintf("spec namespace %q does not match object name %q", ns, tn.Name))
	}
	// Mark managed before touching the world so a spec deleted mid-reconcile
	// still converges to teardown of whatever was already created.
	rgKey := sys.manage(ns)
	// Lane paths are bound to a class when they are made, so once the tenant
	// drains its class is fixed: a spec that changes it is Failed by both
	// names (never Ready with lanes on two classes) until it is reverted.
	if lanes := sys.tenants[ns].lanes; len(lanes) > 0 {
		if bound, qos := lanes[0].Class(), sys.specClass(tn.Spec); bound != qos {
			return sys.setTenantStatus(p, tn, platform.TenantFailed,
				fmt.Sprintf("fabric class %q cannot change to %q: the drain lanes are bound to it", bound, qos))
		}
	}

	// Namespace.
	nsKey := platform.ObjectKey{Kind: platform.KindNamespace, Name: ns}
	nsObj, ok := sys.Main.API.Cached(nsKey)
	if !ok {
		if err := sys.Main.API.Create(p, &platform.Namespace{
			Meta: platform.Meta{Kind: platform.KindNamespace, Name: ns},
		}); err != nil && !errors.Is(err, platform.ErrExists) {
			return err
		}
		if nsObj, ok = sys.Main.API.Cached(nsKey); !ok {
			return &platform.StatusError{Err: platform.ErrNotFound, Key: nsKey}
		}
	}
	nsCur := nsObj.(*platform.Namespace)

	// Claims (created before the backup tag so the operator never sees a
	// tagged-but-empty namespace).
	for _, claim := range tn.Spec.PVCNames {
		ck := platform.ObjectKey{Kind: platform.KindPVC, Namespace: ns, Name: claim}
		if _, ok := sys.Main.API.Cached(ck); !ok {
			if err := sys.Main.API.Create(p, &platform.PersistentVolumeClaim{
				Meta: platform.Meta{Kind: platform.KindPVC, Namespace: ns, Name: claim},
				Spec: platform.PVCSpec{StorageClassName: StorageClassName, SizeBlocks: sys.Cfg.VolumeBlocks, Tenant: ns},
			}); err != nil && !errors.Is(err, platform.ErrExists) {
				return err
			}
		}
	}

	// Labels: the backup tag and the per-tenant shard-count override. The
	// stored namespace is read-only; only a drifted one is copied and edited.
	if tenantLabelsDrifted(nsCur.Labels, tn.Spec) {
		next := nsCur.DeepCopy().(*platform.Namespace)
		setTenantLabels(next, tn.Spec)
		if err := sys.Main.API.Update(p, next); err != nil {
			return err // conflict: retry with the fresh version
		}
	}

	// Status.
	phase, msg := sys.tenantPhase(ns, rgKey, tn.Spec)
	return sys.setTenantStatus(p, tn, phase, msg)
}

// wantShardsLabel is the ShardsLabel value the spec declares ("" = none).
func wantShardsLabel(spec platform.TenantSpec) string {
	if spec.JournalShards > 0 {
		return strconv.Itoa(spec.JournalShards)
	}
	return ""
}

// tenantLabelsDrifted reports whether the namespace's controller-owned
// labels differ from what the spec declares. User labels are left alone.
func tenantLabelsDrifted(labels map[string]string, spec platform.TenantSpec) bool {
	tag, tagged := labels[operator.Tag]
	if spec.Backup != tagged || (tagged && tag != operator.TagValue) {
		return true
	}
	return labels[operator.ShardsLabel] != wantShardsLabel(spec)
}

// setTenantLabels brings the namespace's controller-owned labels in line
// with the spec. ns must be the caller's own copy.
func setTenantLabels(ns *platform.Namespace, spec platform.TenantSpec) {
	if ns.Labels == nil {
		ns.Labels = map[string]string{}
	}
	if spec.Backup {
		ns.Labels[operator.Tag] = operator.TagValue
	} else {
		delete(ns.Labels, operator.Tag)
	}
	if want := wantShardsLabel(spec); want == "" {
		delete(ns.Labels, operator.ShardsLabel)
	} else {
		ns.Labels[operator.ShardsLabel] = want
	}
}

// tenantPhase computes the tenant's current phase: with Backup, the
// replication group (rgKey) decides; without, every spec'd claim must be
// bound.
func (sys *System) tenantPhase(ns string, rgKey platform.ObjectKey, spec platform.TenantSpec) (platform.TenantPhase, string) {
	if spec.Backup {
		obj, ok := sys.Main.API.Cached(rgKey)
		if !ok {
			return platform.TenantProvisioning, "waiting for the operator to create the replication group"
		}
		switch rg := obj.(*platform.ReplicationGroup); rg.Status.Phase {
		case platform.GroupReady:
			return platform.TenantReady, "replication running"
		case platform.GroupFailed:
			return platform.TenantFailed, "replication group failed: " + rg.Status.Message
		default:
			return platform.TenantProvisioning, "replication " + string(rg.Status.Phase)
		}
	}
	for _, claim := range spec.PVCNames {
		obj, ok := sys.Main.API.Cached(platform.ObjectKey{Kind: platform.KindPVC, Namespace: ns, Name: claim})
		if !ok {
			return platform.TenantProvisioning, "claim " + claim + " not created"
		}
		if obj.(*platform.PersistentVolumeClaim).Status.VolumeName == "" {
			return platform.TenantProvisioning, "claim " + claim + " not bound"
		}
	}
	return platform.TenantReady, "provisioned"
}

// setTenantStatus patches the Tenant status if it changed, tolerating
// conflicts (re-read and retry) and a concurrent delete (the Deleted event
// requeues into teardown). The write copies the struct only: the spec it
// shares with the stored Tenant is never touched.
func (sys *System) setTenantStatus(p *sim.Proc, tn *platform.Tenant, phase platform.TenantPhase, msg string) error {
	key := tn.Key()
	for {
		obj, ok := sys.Main.API.Cached(key)
		if !ok {
			return nil
		}
		if st := obj.(*platform.Tenant).Status; st.Phase == phase && st.Message == msg {
			return nil
		}
		cur := *obj.(*platform.Tenant)
		cur.Status.Phase = phase
		cur.Status.Message = msg
		if phase == platform.TenantReady && cur.Status.ReadyAt == 0 {
			cur.Status.ReadyAt = sys.Env.Now()
		}
		err := sys.Main.API.Update(p, &cur)
		if errors.Is(err, platform.ErrConflict) {
			continue
		}
		return err
	}
}

// teardownTenant converges a deleted Tenant spec to zero residue. Each call
// makes progress and returns an error while downstream controllers (the
// operator's group removal, the replication plugin's journal teardown, the
// provisioner's volume unwind) still have work in flight; the controller's
// backoff retries until both arrays are clean.
func (sys *System) teardownTenant(p *sim.Proc, ns string, rgKey platform.ObjectKey) error {
	api := sys.Main.API
	// 1. The namespace: deleting it makes the operator remove the
	// ReplicationGroup, which makes the replication plugin stop the engines
	// and delete + detach the journal (or all of its shards).
	nsKey := platform.ObjectKey{Kind: platform.KindNamespace, Name: ns}
	if _, ok := api.Cached(nsKey); ok {
		if err := api.Delete(p, nsKey); err != nil && !errors.Is(err, platform.ErrNotFound) {
			return err
		}
	}
	if _, ok := api.Cached(rgKey); ok {
		return fmt.Errorf("core: decommission %s: replication group still present", ns)
	}
	if n := len(sys.Replication.Groups(rgKey.Name)); n > 0 {
		return fmt.Errorf("core: decommission %s: %d replication engines still running", ns, n)
	}
	// 2. Main-site claims: deleting the PVC objects has the provisioner
	// unwind each bound PV and array volume (now detachable — the journal
	// teardown above released them).
	for _, obj := range api.CachedList(platform.KindPVC, ns) {
		if err := api.Delete(p, obj.GetMeta().Key()); err != nil && !errors.Is(err, platform.ErrNotFound) {
			return err
		}
	}
	// 3. Backup-site twins: no provisioner owns them, so the objects,
	// snapshots, and volumes are reclaimed here.
	bapi := sys.Backup.API
	for _, obj := range bapi.CachedList(platform.KindPVC, ns) {
		claim := obj.GetMeta().Name
		if err := bapi.Delete(p, obj.GetMeta().Key()); err != nil && !errors.Is(err, platform.ErrNotFound) {
			return err
		}
		pvKey := platform.ObjectKey{Kind: platform.KindPV, Name: csiplugin.PVNameForClaim(ns, claim)}
		if err := bapi.Delete(p, pvKey); err != nil && !errors.Is(err, platform.ErrNotFound) {
			return err
		}
		volID := csiplugin.VolumeIDForClaim(ns, claim)
		if _, err := sys.Backup.Array.Volume(volID); err == nil {
			if err := sys.Backup.Array.DeleteVolumeSnapshots(volID); err != nil {
				return err
			}
			if err := sys.Backup.Array.DeleteVolume(volID); err != nil {
				return err
			}
		}
	}
	// 4. The free-list invariant: nothing of the tenant may remain on either
	// array. The provisioner's unwind is asynchronous, so residue here just
	// means "retry shortly".
	if res := sys.TenantResidue(ns); len(res) > 0 {
		return fmt.Errorf("core: decommission %s: residue remains: %s", ns, strings.Join(res, "; "))
	}
	// 5. Reclaim the tenant's record. One queue never runs two reconciles of
	// this key at once, so exactly one completes it.
	delete(sys.tenants, ns)
	return nil
}

// TenantResidue lists everything of the tenant still allocated on either
// array (volumes, journals or shards, snapshots, snapshot groups) plus any
// replication engine still registered — empty exactly when the tenant's
// capacity is fully back on the free lists.
//
// Attribution is by ID prefix ("pvc-<ns>-", "jnl-backup-<ns>-"), so a
// namespace that EXTENDS this one ("shop-2" vs "shop") would match too;
// anything attributable to such a longer known namespace — managed or
// imperative — is excluded, otherwise decommissioning "shop" could wait
// forever on "shop-2"'s healthy volumes.
func (sys *System) TenantResidue(namespace string) []string {
	var longer []string
	known := func(ns string) {
		if ns != namespace && strings.HasPrefix(ns, namespace) {
			longer = append(longer,
				string(csiplugin.VolumeIDForClaim(ns, "")),
				"jnl-"+operator.GroupNameFor(ns)+"-")
		}
	}
	for ns := range sys.tenants {
		known(ns)
	}
	for _, ns := range sys.Main.API.Names(platform.KindNamespace) {
		known(ns)
	}
	othersOwn := func(entry string) bool {
		for _, p := range longer {
			if strings.Contains(entry, p) {
				return true
			}
		}
		return false
	}
	var out []string
	volPrefix := string(csiplugin.VolumeIDForClaim(namespace, ""))
	jnlPrefix := "jnl-" + operator.GroupNameFor(namespace) + "-"
	for _, a := range []*storage.Array{sys.Main.Array, sys.Backup.Array} {
		for _, prefix := range []string{volPrefix, jnlPrefix} {
			for _, r := range a.Residue(prefix) {
				if othersOwn(r) {
					continue
				}
				out = append(out, a.Name()+": "+r)
			}
		}
	}
	for _, g := range sys.Replication.Groups(operator.GroupNameFor(namespace)) {
		out = append(out, "replication engine "+g.Name())
	}
	return out
}

// ProvisionTenant submits a tenant spec and waits for the controller to
// reconcile it to Ready — namespace, bound claims, and (with spec.Backup)
// a running consistency-group replication including the initial copy — all
// while other tenants keep serving load. For an OLTP-profile spec whose
// claims include the business-process pair (sales + stock), the returned
// BusinessProcess carries the opened databases and a shop workload; a
// "data-only" profile leaves the claims as raw replicated volumes.
func (sys *System) ProvisionTenant(p *sim.Proc, spec platform.TenantSpec) (*BusinessProcess, error) {
	if err := sys.validateSpec(spec); err != nil {
		return nil, err
	}
	ns := spec.Namespace
	if err := sys.Main.API.Create(p, &platform.Tenant{
		Meta:   platform.Meta{Kind: platform.KindTenant, Name: ns},
		Spec:   spec,
		Status: platform.TenantStatus{Phase: platform.TenantPending, Message: "spec accepted"},
	}); err != nil {
		return nil, err
	}
	if err := sys.WaitTenantCondition(p, ns, CondReady(), sys.provisionTimeout()); err != nil {
		return nil, err
	}
	bp := &BusinessProcess{Namespace: ns, PVCNames: append([]string(nil), spec.PVCNames...)}
	hasClaim := func(name string) bool {
		for _, c := range spec.PVCNames {
			if c == name {
				return true
			}
		}
		return false
	}
	if spec.Profile != "data-only" && hasClaim("sales") && hasClaim("stock") {
		var err error
		if bp.Sales, err = sys.openDB(p, ns, "sales"); err != nil {
			return nil, err
		}
		if bp.Stock, err = sys.openDB(p, ns, "stock"); err != nil {
			return nil, err
		}
		// "oltp-external" leaves the workload to the caller — no throwaway
		// default shop (the fleet seeds one per tenant).
		if spec.Profile == "" {
			bp.Shop = workload.NewShop(sys.Env, bp.Sales, bp.Stock, workload.Config{Seed: sys.Cfg.Seed})
		}
	}
	return bp, nil
}

// UpdateTenantSpec mutates a tenant's declared spec in place, retrying
// version conflicts (the tenant controller updates the same object's status
// concurrently). A mutation that leaves the spec unchanged performs no API
// write at all — spec updates are only as loud as the drift they declare.
// The controller chain then reconciles the world to the new spec; block on
// the outcome with WaitTenantCondition. It is the read-modify-write
// primitive under ApplyTenant — reach for it when the caller must not
// clobber spec fields it does not own.
func (sys *System) UpdateTenantSpec(p *sim.Proc, namespace string, mutate func(*platform.TenantSpec)) error {
	for {
		obj, err := sys.Main.API.Get(p, tenantKey(namespace))
		if err != nil {
			return err
		}
		tn := obj.(*platform.Tenant)
		next := tn.DeepCopy().(*platform.Tenant)
		mutate(&next.Spec)
		if reflect.DeepEqual(tn.Spec, next.Spec) {
			return nil
		}
		err = sys.Main.API.Update(p, next)
		if errors.Is(err, platform.ErrConflict) {
			continue
		}
		return err
	}
}

// ErrNotReshardable reports a reshard request against replication that can
// never reconfigure its lanes: a tenant without backup has no engine, and a
// failed-over or stopped group has no live drain to migrate under. The
// refusal is immediate — these states do not converge, so waiting a timeout
// out would just dress a permanent condition up as a transient one.
var ErrNotReshardable = errors.New("core: tenant replication cannot reshard")

// reshardable screens the namespace for the permanent can't-reshard states
// (nil for "possible or still transient"): no backup declared (nothing will
// ever drain), or an engine that already failed over or stopped.
func (sys *System) reshardable(p *sim.Proc, namespace string) error {
	obj, err := sys.Main.API.Get(p, tenantKey(namespace))
	if err != nil {
		return err
	}
	if !obj.(*platform.Tenant).Spec.Backup {
		return fmt.Errorf("%w: %s has backup disabled (no replication to reshard)", ErrNotReshardable, namespace)
	}
	for _, g := range sys.Groups(namespace) {
		if g.FailedOver() || g.Stopped() {
			return fmt.Errorf("%w: %s engine %s is no longer draining", ErrNotReshardable, namespace, g.Name())
		}
	}
	return nil
}

// DecommissionTenant drains the tenant's replication, deletes its spec, and
// waits until the controller has detached the replication group and
// reclaimed every volume and journal shard back to the array free lists.
// Surviving tenants keep serving load throughout. Idempotent: a tenant
// already gone (or mid-teardown) just waits for zero residue.
func (sys *System) DecommissionTenant(p *sim.Proc, namespace string) error {
	if _, err := sys.Main.API.Get(p, tenantKey(namespace)); err == nil {
		// Drain first so the backup image is current when the group detaches
		// (a failed-over or stopped engine has nothing left to drain).
		for _, g := range sys.Groups(namespace) {
			if !g.FailedOver() && !g.Stopped() {
				g.CatchUp(p)
			}
		}
		if err := sys.Main.API.Delete(p, tenantKey(namespace)); err != nil && !errors.Is(err, platform.ErrNotFound) {
			return err
		}
	} else if !errors.Is(err, platform.ErrNotFound) {
		return err
	}
	return sys.WaitTenantCondition(p, namespace, CondGone(), sys.provisionTimeout())
}
