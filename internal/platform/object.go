// Package platform is the miniature container platform (OpenShift
// stand-in) the demonstration runs on: a typed object store with
// resource-version concurrency and watches, the persistent-volume object
// model (StorageClass / PVC / PV), the custom resources the storage and
// replication plugins reconcile, and a small controller runtime with a
// deduplicating work queue.
package platform

import (
	"maps"
	"slices"
	"time"

	"repro/internal/storage"
)

// Kind identifies an object type.
type Kind string

// Built-in and custom resource kinds.
const (
	KindNamespace        Kind = "Namespace"
	KindStorageClass     Kind = "StorageClass"
	KindPVC              Kind = "PersistentVolumeClaim"
	KindPV               Kind = "PersistentVolume"
	KindReplicationGroup Kind = "ReplicationGroup"
	KindTenant           Kind = "Tenant"
)

// Meta is the common object metadata.
type Meta struct {
	Kind            Kind
	Namespace       string // "" for cluster-scoped kinds
	Name            string
	Labels          map[string]string
	ResourceVersion int64
	CreatedAt       time.Duration
}

// GetMeta returns the object metadata; every kind has it through the
// embedded Meta.
func (m *Meta) GetMeta() *Meta { return m }

// Key returns the store key ("namespace/name" or "name").
func (m Meta) Key() ObjectKey { return ObjectKey{Kind: m.Kind, Namespace: m.Namespace, Name: m.Name} }

// storeLabels returns prev's labels when in equals them (prev is the stored
// version an Update replaces, immutable), else a copy of in.
func storeLabels(in map[string]string, prev Object) map[string]string {
	if prev != nil && len(in) > 0 && maps.Equal(in, prev.GetMeta().Labels) {
		return prev.GetMeta().Labels
	}
	return maps.Clone(in)
}

// storeNames is storeLabels for the claim names of a ReplicationGroup or
// Tenant.
func storeNames(in []string, prev Object) []string {
	var was []string
	switch p := prev.(type) {
	case *ReplicationGroup:
		was = p.Spec.PVCNames
	case *Tenant:
		was = p.Spec.PVCNames
	}
	if len(in) > 0 && slices.Equal(in, was) {
		return was
	}
	return append([]string(nil), in...)
}

// ObjectKey names one object.
type ObjectKey struct {
	Kind      Kind
	Namespace string
	Name      string
}

func (k ObjectKey) String() string {
	if k.Namespace == "" {
		return string(k.Kind) + "/" + k.Name
	}
	return string(k.Kind) + "/" + k.Namespace + "/" + k.Name
}

// Object is any API object. Objects obtained from the API server (Get, List,
// watch events) are shared and read-only; DeepCopy is how a reader gets one
// it may mutate.
type Object interface {
	GetMeta() *Meta
	DeepCopy() Object
	// storeCopy is DeepCopy for Update: the copy shares prev's (the replaced
	// version's) Labels and PVCNames where they equal the receiver's.
	// DeepCopy is storeCopy(nil).
	storeCopy(prev Object) Object
}

// Namespace partitions the application environment (§II).
type Namespace struct {
	Meta
}

// DeepCopy returns an independent copy.
func (n *Namespace) DeepCopy() Object { return n.storeCopy(nil) }

func (n *Namespace) storeCopy(prev Object) Object {
	c := *n
	c.Labels = storeLabels(n.Labels, prev)
	return &c
}

// StorageClass names a provisioner for dynamic volume provisioning.
type StorageClass struct {
	Meta
	Provisioner string
	// ArrayName routes provisioning to a specific storage array.
	ArrayName string
}

// DeepCopy returns an independent copy.
func (s *StorageClass) DeepCopy() Object { return s.storeCopy(nil) }

func (s *StorageClass) storeCopy(prev Object) Object {
	c := *s
	c.Labels = storeLabels(s.Labels, prev)
	return &c
}

// PersistentVolumeClaim requests storage for an application.
type PersistentVolumeClaim struct {
	Meta
	Spec   PVCSpec
	Status PVCStatus
}

// PVCSpec is the user-facing request.
type PVCSpec struct {
	StorageClassName string
	SizeBlocks       int64
	// Tenant names the Tenant that declared the claim ("" for a claim made
	// by hand). The tenant controller sets it when it creates the claim and
	// the backup twin copies it, so a tenant's ownership outlives its Tenant
	// object in the store until its teardown has deleted the claims.
	Tenant string
}

// PVCStatus is filled by the storage plugin: a claim is bound exactly when
// it names its PV.
type PVCStatus struct {
	VolumeName string // bound PV name ("" while pending)
}

// DeepCopy returns an independent copy.
func (c *PersistentVolumeClaim) DeepCopy() Object { return c.storeCopy(nil) }

func (c *PersistentVolumeClaim) storeCopy(prev Object) Object {
	cp := *c
	cp.Labels = storeLabels(c.Labels, prev)
	return &cp
}

// VolumePhase is a PV lifecycle phase.
type VolumePhase string

// PV phases.
const (
	VolumeAvailable VolumePhase = "Available"
	VolumeBound     VolumePhase = "Bound"
)

// PersistentVolume records one provisioned array volume.
type PersistentVolume struct {
	Meta
	Spec   PVSpec
	Status PVStatus
}

// PVSpec ties the PV to the array volume backing it.
type PVSpec struct {
	ArrayName  string
	VolumeID   storage.VolumeID
	SizeBlocks int64
}

// PVStatus tracks binding.
type PVStatus struct {
	Phase     VolumePhase
	ClaimRef  ObjectKey // bound PVC
	ClaimName string
}

// DeepCopy returns an independent copy.
func (v *PersistentVolume) DeepCopy() Object { return v.storeCopy(nil) }

func (v *PersistentVolume) storeCopy(prev Object) Object {
	cp := *v
	cp.Labels = storeLabels(v.Labels, prev)
	return &cp
}

// GroupPhase is a ReplicationGroup lifecycle phase.
type GroupPhase string

// ReplicationGroup phases.
const (
	GroupPending GroupPhase = "Pending"
	GroupSyncing GroupPhase = "Syncing"
	GroupReady   GroupPhase = "Ready"
	GroupFailed  GroupPhase = "Failed"
)

// ReplicationGroup is the custom resource the namespace operator creates
// and the replication plugin reconciles: "replicate these PVCs to the
// backup site as one consistency group".
type ReplicationGroup struct {
	Meta
	Spec   ReplicationGroupSpec
	Status ReplicationGroupStatus
}

// ReplicationGroupSpec lists the volumes of one business process.
type ReplicationGroupSpec struct {
	// SourceNamespace is the namespace whose PVCs replicate.
	SourceNamespace string
	// PVCNames are the claims to replicate, in discovery order.
	PVCNames []string
	// JournalShards, when > 1, shards the consistency group's journal so
	// the replication plugin drains it on that many lanes (one per shard,
	// with epoch barriers preserving cross-volume cuts). 0 or 1 keeps the
	// single shared journal.
	JournalShards int
}

// ReplicationGroupStatus is filled by the replication plugin.
type ReplicationGroupStatus struct {
	Phase     GroupPhase
	JournalID string
	Message   string
}

// DeepCopy returns an independent copy.
func (g *ReplicationGroup) DeepCopy() Object { return g.storeCopy(nil) }

func (g *ReplicationGroup) storeCopy(prev Object) Object {
	cp := *g
	cp.Labels = storeLabels(g.Labels, prev)
	cp.Spec.PVCNames = storeNames(g.Spec.PVCNames, prev)
	return &cp
}

// SLOClass is a named service-level policy a TenantSpec references: the
// windowed-RPO target the autopilot holds the tenant inside, the shard
// bounds it may move the tenant between, and the class's admission
// priority at the inter-site fabric. SLO classes are deployment policy,
// not per-tenant state — they are registered once in core.Config and the
// autopilot reads tenants' classes by name.
type SLOClass struct {
	// Name identifies the class ("gold", "bulk", ...).
	Name string
	// RPOTarget is the windowed-RPO ceiling the autopilot defends for
	// tenants of this class. 0 means no RPO SLO: the autopilot never
	// reshards the tenant and never derates others on its behalf.
	RPOTarget time.Duration
	// MinShards/MaxShards bound the journal shard counts the autopilot may
	// declare for tenants of this class (0 defaults: min 1, max 4).
	MinShards int
	MaxShards int
	// AdmissionPriority orders classes at the fabric ingress under SLO
	// pressure: when a higher-priority class's RPO approaches its target,
	// the autopilot derates the ingress rate of lower-priority classes
	// first (and restores them when the protected class recovers).
	AdmissionPriority int
}

// WithDefaults fills the zero-value shard bounds.
func (c SLOClass) WithDefaults() SLOClass {
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 4
	}
	if c.MaxShards < c.MinShards {
		c.MaxShards = c.MinShards
	}
	return c
}

// TenantPhase is a Tenant lifecycle phase.
type TenantPhase string

// Tenant phases. Ready means the whole spec is realized: namespace and
// claims exist, every claim is bound, and — when Backup is requested — the
// replication group reports Ready.
const (
	TenantPending      TenantPhase = "Pending"
	TenantProvisioning TenantPhase = "Provisioning"
	TenantReady        TenantPhase = "Ready"
	TenantFailed       TenantPhase = "Failed"
)

// Tenant is the declarative tenant-lifecycle object (cluster-scoped; its
// name is the tenant namespace). Creating one asks the tenant controller to
// provision the namespace, its claims, and — when Backup is set — the
// consistency-group replication for them; deleting it asks for a full
// decommission: drain, detach the replication group, and reclaim volumes
// and journal shards back to the array free lists.
type Tenant struct {
	Meta
	Spec   TenantSpec
	Status TenantStatus
}

// TenantSpec is the tenant's desired state.
type TenantSpec struct {
	// Namespace the tenant occupies. Defaults to the object name; when both
	// are set they must agree.
	Namespace string
	// PVCNames are the claims to provision. Claims already in the namespace
	// that the list does not name are left alone (and, with Backup, still
	// replicated: the operator takes every claim it finds).
	PVCNames []string
	// Backup requests consistent replication to the backup site (the
	// namespace tag the operator watches).
	Backup bool
	// QoSClass names the fabric class the tenant's drain traffic rides
	// ("" = the fabric class named like its SLOClass, else the default
	// class). Every
	// drain lane rides it, and it is fixed once the tenant drains: a spec
	// that changes it then leaves the tenant Failed until it is reverted.
	QoSClass string
	// JournalShards, when > 1, shards the tenant's consistency-group
	// journal across that many drain lanes (0 or 1 = the paper's single
	// shared journal on one lane). The field is MUTABLE: changing it on a
	// provisioned tenant drives a live reshard — the controller chain seals
	// an epoch barrier, re-places volumes on the new shard set, and
	// reconfigures drain lanes while replication keeps running; wait for it
	// with core.CondResharded.
	JournalShards int
	// SLOClass names the tenant's service-level policy (an SLOClass
	// registered in the deployment's config). The autopilot reads it to
	// decide the tenant's RPO target, shard bounds, and admission priority;
	// when QoSClass is empty the tenant rides the fabric class of the same
	// name. "" opts the tenant out of SLO management.
	SLOClass string
	// Profile names the tenant's workload shape, one of three (core refuses
	// any other). "" is the business process: ProvisionTenant opens the
	// sales/stock databases and attaches a default shop workload.
	// "oltp-external" opens the databases
	// but leaves the workload to the caller (the fleet attaches its own
	// per-tenant-seeded shop). "data-only" provisions and replicates the
	// claims as raw volumes (no databases opened) — the E13-style tenants.
	Profile string
}

// TenantStatus is filled by the tenant controller.
type TenantStatus struct {
	Phase   TenantPhase
	Message string
	// ReadyAt is the virtual time the tenant first reached Ready.
	ReadyAt time.Duration
}

// DeepCopy returns an independent copy.
func (t *Tenant) DeepCopy() Object { return t.storeCopy(nil) }

func (t *Tenant) storeCopy(prev Object) Object {
	cp := *t
	cp.Labels = storeLabels(t.Labels, prev)
	cp.Spec.PVCNames = storeNames(t.Spec.PVCNames, prev)
	return &cp
}
