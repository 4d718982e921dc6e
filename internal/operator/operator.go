// Package operator implements the namespace operator (NSO), the paper's new
// contribution (§III-B1). The NSO watches namespaces for the backup tag:
// when a user labels a namespace with
//
//	backup=ConsistentCopyToCloud
//
// the operator extracts every PVC in that namespace and creates a
// ReplicationGroup custom resource with consistency grouping enabled, which
// the replication plugin then turns into configured ADC. Removing the tag
// deletes the CR and tears the replication down. This automation is what
// removes the "laborious tasks to identify the related data volumes and to
// configure the ADC" (§II): the user performs one operation regardless of
// how many volumes the business process spans.
package operator

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Tag is the namespace label key the operator watches.
const Tag = "backup"

// TagValue is the label value that requests consistent replication — the
// exact string from the demonstration (Fig. 3).
const TagValue = "ConsistentCopyToCloud"

// ShardsLabel is the namespace label carrying the namespace's journal shard
// count — how the tenant controller threads TenantSpec.JournalShards into
// the ReplicationGroup it has the operator create. An absent or unparsable
// value is the paper's single shared journal on one lane.
const ShardsLabel = "backup-shards"

// Config tunes operator behaviour.
type Config struct {
	// Telemetry, when set, instruments the operator's controller
	// (reconcile latency, requeues, reconcile spans).
	Telemetry *telemetry.Registry
}

// Operator is the namespace operator.
type Operator struct {
	env  *sim.Env
	api  *platform.APIServer
	cfg  Config
	ctrl *platform.Controller

	configured int64
	removed    int64
}

// New builds the operator on the main site's API server. One controller
// watches both namespaces (for the tag) and PVCs (so claims added after
// tagging extend the replication group), on one queue keyed by namespace.
func New(env *sim.Env, api *platform.APIServer, cfg Config) *Operator {
	o := &Operator{env: env, api: api, cfg: cfg}
	o.ctrl = platform.NewController(env, api, "namespace-operator", platform.KindNamespace,
		nil, platform.ReconcilerFunc(o.reconcile), platform.ControllerConfig{Telemetry: cfg.Telemetry}).
		Watches(platform.KindPVC, func(ev platform.Event) (platform.ObjectKey, bool) {
			return platform.ObjectKey{Kind: platform.KindNamespace, Name: ev.Object.GetMeta().Namespace}, true
		})
	return o
}

// Start launches the operator.
func (o *Operator) Start() { o.ctrl.Start() }

// Stop halts the operator.
func (o *Operator) Stop() { o.ctrl.Stop() }

// Configured returns how many ReplicationGroups the operator created (a
// Create that found the group already there is not one).
func (o *Operator) Configured() int64 { return o.configured }

// Removed returns how many ReplicationGroups the operator deleted.
func (o *Operator) Removed() int64 { return o.removed }

// GroupNameFor returns the ReplicationGroup name the operator uses for a
// namespace.
func GroupNameFor(namespace string) string { return "backup-" + namespace }

// NamespaceOfGroup inverts GroupNameFor: the namespace a ReplicationGroup
// name was derived from, with ok=false for names this operator did not
// mint. Keep in lockstep with GroupNameFor (the tenant controller maps RG
// events back to tenant keys through this).
func NamespaceOfGroup(name string) (string, bool) {
	ns := strings.TrimPrefix(name, "backup-")
	if ns == name || ns == "" {
		return "", false
	}
	return ns, true
}

// reconcile reads the informer cache (APIServer.Cached); only its writes
// are round trips.
func (o *Operator) reconcile(p *sim.Proc, key platform.ObjectKey) error {
	groupKey := platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: GroupNameFor(key.Name)}
	obj, err := o.api.Cached(key)
	if errors.Is(err, platform.ErrNotFound) {
		// Namespace deleted: remove its replication configuration.
		return o.ensureAbsent(p, groupKey)
	}
	if err != nil {
		return err
	}
	ns := obj.(*platform.Namespace)
	if ns.Labels[Tag] != TagValue {
		return o.ensureAbsent(p, groupKey)
	}

	// Tag present: discover the namespace's PVCs — the correspondence
	// between applications and storage volumes the operator unravels.
	var pvcNames []string
	for _, c := range o.api.CachedList(platform.KindPVC, ns.Name) {
		pvcNames = append(pvcNames, c.GetMeta().Name)
	}
	if len(pvcNames) == 0 {
		return fmt.Errorf("operator: namespace %s tagged but has no PVCs", ns.Name)
	}

	shards := 0
	// Most namespaces carry no label: ask before parsing, or Atoi("")
	// allocates a *NumError on every pass of every tenant.
	if label, ok := ns.Labels[ShardsLabel]; ok {
		if v, err := strconv.Atoi(label); err == nil && v > 0 {
			shards = v
		}
	}
	existing, err := o.api.Cached(groupKey)
	if err == nil {
		// Keep the CR's spec current: a new claim may have appeared, and a
		// ShardsLabel change must propagate so the replication plugin drives
		// a live reshard instead of the label being silently ignored.
		if spec := existing.(*platform.ReplicationGroup).Spec; equalStrings(spec.PVCNames, pvcNames) && spec.JournalShards == shards {
			return nil
		}
		rg := existing.DeepCopy().(*platform.ReplicationGroup)
		rg.Spec.PVCNames = pvcNames
		rg.Spec.JournalShards = shards
		return o.api.Update(p, rg)
	}
	if !errors.Is(err, platform.ErrNotFound) {
		return err
	}
	rg := &platform.ReplicationGroup{
		Meta: platform.Meta{Kind: platform.KindReplicationGroup, Name: groupKey.Name},
		Spec: platform.ReplicationGroupSpec{
			SourceNamespace: ns.Name,
			PVCNames:        pvcNames,
			JournalShards:   shards,
		},
		Status: platform.ReplicationGroupStatus{Phase: platform.GroupPending},
	}
	if err := o.api.Create(p, rg); err != nil {
		if errors.Is(err, platform.ErrExists) {
			return nil // created meanwhile: not a configuration of ours
		}
		return err
	}
	o.configured++
	return nil
}

func (o *Operator) ensureAbsent(p *sim.Proc, groupKey platform.ObjectKey) error {
	err := o.api.Delete(p, groupKey)
	if errors.Is(err, platform.ErrNotFound) {
		return nil
	}
	if err == nil {
		o.removed++
	}
	return err
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
