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
	"slices"
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

// Operator is the namespace operator.
type Operator struct {
	env  *sim.Env
	api  *platform.APIServer
	ctrl *platform.Controller

	// groupKeys carries each live namespace's ReplicationGroup key, formatted
	// on the namespace's first reconcile and dropped once it is gone.
	groupKeys map[string]platform.ObjectKey

	configured int64
}

// New builds the operator on the main site's API server. One controller
// watches both namespaces (for the tag) and PVCs (so claims added after
// tagging extend the replication group), on one queue keyed by namespace.
// tel, when set, instruments the operator's controller (reconcile latency,
// requeues, reconcile spans).
func New(env *sim.Env, api *platform.APIServer, tel *telemetry.Registry) *Operator {
	o := &Operator{env: env, api: api, groupKeys: make(map[string]platform.ObjectKey)}
	o.ctrl = platform.NewController(env, api, "namespace-operator", platform.KindNamespace, o.reconcile, tel).
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
	groupKey, known := o.groupKeys[key.Name]
	if !known {
		groupKey = platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: GroupNameFor(key.Name)}
	}
	obj, ok := o.api.Cached(key)
	if !ok {
		// Namespace deleted: remove its replication configuration.
		delete(o.groupKeys, key.Name)
		return o.ensureAbsent(p, groupKey)
	}
	if !known {
		o.groupKeys[key.Name] = groupKey
	}
	ns := obj.(*platform.Namespace)
	if ns.Labels[Tag] != TagValue {
		return o.ensureAbsent(p, groupKey)
	}

	// Tag present: discover the namespace's PVCs — the correspondence
	// between applications and storage volumes the operator unravels.
	claims := o.api.CachedList(platform.KindPVC, ns.Name)
	if len(claims) == 0 {
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
	if existing, ok := o.api.Cached(groupKey); ok {
		// Keep the CR's spec current: a new claim may have appeared, and a
		// ShardsLabel change must propagate so the replication plugin drives
		// a live reshard instead of the label being silently ignored. The
		// listed claims are compared in place; names are built only to write.
		cur := existing.(*platform.ReplicationGroup)
		if cur.Spec.JournalShards == shards && slices.EqualFunc(cur.Spec.PVCNames, claims,
			func(name string, c platform.Object) bool { return name == c.GetMeta().Name }) {
			return nil
		}
		rg := *cur // Update stores its own copy: the struct copy is enough
		rg.Spec.PVCNames = claimNames(claims)
		rg.Spec.JournalShards = shards
		return o.api.Update(p, &rg)
	}
	rg := &platform.ReplicationGroup{
		Meta: platform.Meta{Kind: platform.KindReplicationGroup, Name: groupKey.Name},
		Spec: platform.ReplicationGroupSpec{
			SourceNamespace: ns.Name,
			PVCNames:        claimNames(claims),
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
	if err := o.api.Delete(p, groupKey); err != nil && !errors.Is(err, platform.ErrNotFound) {
		return err
	}
	return nil
}

// claimNames lists the claims' names, in the listed order.
func claimNames(claims []platform.Object) []string {
	names := make([]string, len(claims))
	for i, c := range claims {
		names[i] = c.GetMeta().Name
	}
	return names
}
