// Package csiplugin implements the vendor storage plugins of §III-B2 as
// platform controllers:
//
//   - Provisioner ("Storage Plug-in for Containers"): dynamic provisioning —
//     Pending PVCs get an array volume and a bound PV.
//   - ReplicationPlugin ("Replication Plug-in for Containers"): reconciles
//     each ReplicationGroup custom resource into ADC configured as one
//     consistency group, including the backup-site PV/PVC objects that
//     "appear" in the demo's Fig. 4.
//
// There is no group-snapshot controller: CSI VolumeGroupSnapshot was alpha
// and the plugin did not support it (§II), so the demo's group snapshot
// operates the storage array directly (core.System.SnapshotBackup).
package csiplugin

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Plugin-level errors.
var (
	// ErrClaimNotBound reports a PVC that has no volume yet; reconciles
	// retry until the provisioner binds it.
	ErrClaimNotBound = errors.New("csiplugin: claim not bound")
	// ErrUnknownArray reports a storage class naming an array the plugin
	// does not manage.
	ErrUnknownArray = errors.New("csiplugin: unknown array")
)

// SnapshotController is an empty stand-in kept only because benchmark/
// reads Snapshots() off core.Site; it goes with the benchmark unfreeze
// (ROADMAP item 1).
type SnapshotController struct{}

// Snapshots returns 0: nothing creates volume snapshots through the
// platform API. Safe on a nil receiver.
func (*SnapshotController) Snapshots() int64 { return 0 }

// Provisioner binds Pending PVCs to freshly provisioned array volumes.
type Provisioner struct {
	env    *sim.Env
	api    *platform.APIServer
	arrays map[string]*storage.Array
	ctrl   *platform.Controller

	provisioned int64
}

// NewProvisioner manages the given arrays (keyed by array name, referenced
// from StorageClass.ArrayName).
func NewProvisioner(env *sim.Env, api *platform.APIServer, arrays map[string]*storage.Array) *Provisioner {
	pr := &Provisioner{env: env, api: api, arrays: arrays}
	pr.ctrl = platform.NewController(env, api, "provisioner", platform.KindPVC, pr.reconcile, nil)
	return pr
}

// Start launches the controller.
func (pr *Provisioner) Start() { pr.ctrl.Start() }

// Stop halts the controller.
func (pr *Provisioner) Stop() { pr.ctrl.Stop() }

// Provisioned returns how many volumes this plugin created.
func (pr *Provisioner) Provisioned() int64 { return pr.provisioned }

// VolumeIDForClaim is the deterministic array volume name for a claim.
func VolumeIDForClaim(namespace, name string) storage.VolumeID {
	return storage.VolumeID("pvc-" + namespace + "-" + name)
}

// PVNameForClaim is the deterministic PV object name for a claim.
func PVNameForClaim(namespace, name string) string {
	return "pv-" + namespace + "-" + name
}

// reconcile reads the informer cache (APIServer.Cached); only its writes
// are round trips.
func (pr *Provisioner) reconcile(p *sim.Proc, key platform.ObjectKey) error {
	obj, ok := pr.api.Cached(key)
	if !ok {
		// Claim deleted: unwind its PV and array volume so decommissioned
		// tenants return their capacity to the array free lists.
		return pr.unprovision(p, key)
	}
	if obj.(*platform.PersistentVolumeClaim).Status.VolumeName != "" {
		return nil
	}
	claim := obj.DeepCopy().(*platform.PersistentVolumeClaim) // bound and written back below
	scKey := platform.ObjectKey{Kind: platform.KindStorageClass, Name: claim.Spec.StorageClassName}
	scObj, ok := pr.api.Cached(scKey)
	if !ok {
		return fmt.Errorf("csiplugin: claim %s: storage class: %w", key, &platform.StatusError{Err: platform.ErrNotFound, Key: scKey})
	}
	sc := scObj.(*platform.StorageClass)
	array, ok := pr.arrays[sc.ArrayName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownArray, sc.ArrayName)
	}
	volID := VolumeIDForClaim(claim.Namespace, claim.Name)
	if _, err := array.CreateVolume(volID, claim.Spec.SizeBlocks); err != nil && !errors.Is(err, storage.ErrVolumeExists) {
		return err
	}
	pvName := PVNameForClaim(claim.Namespace, claim.Name)
	pv := &platform.PersistentVolume{
		Meta: platform.Meta{Kind: platform.KindPV, Name: pvName},
		Spec: platform.PVSpec{ArrayName: sc.ArrayName, VolumeID: volID, SizeBlocks: claim.Spec.SizeBlocks},
		Status: platform.PVStatus{
			Phase:     platform.VolumeBound,
			ClaimRef:  claim.Key(),
			ClaimName: claim.Name,
		},
	}
	if err := pr.api.Create(p, pv); err != nil && !errors.Is(err, platform.ErrExists) {
		return err
	}
	claim.Status.VolumeName = pvName
	if err := pr.api.Update(p, claim); err != nil {
		return err
	}
	pr.provisioned++
	return nil
}

// unprovision reverses provisioning for a deleted claim: delete the array
// volume (and its snapshots) and the bound PV object. A volume still
// attached to a journal makes the reconcile retry — the replication
// teardown must detach it first, and the controller's backoff converges
// once it has.
func (pr *Provisioner) unprovision(p *sim.Proc, key platform.ObjectKey) error {
	pvKey := platform.ObjectKey{Kind: platform.KindPV, Name: PVNameForClaim(key.Namespace, key.Name)}
	pvObj, ok := pr.api.Cached(pvKey)
	if !ok {
		return nil // never provisioned, or already unwound
	}
	pv := pvObj.(*platform.PersistentVolume)
	if array, ok := pr.arrays[pv.Spec.ArrayName]; ok {
		if _, err := array.Volume(pv.Spec.VolumeID); err == nil {
			if err := array.DeleteVolumeSnapshots(pv.Spec.VolumeID); err != nil {
				return err
			}
			if err := array.DeleteVolume(pv.Spec.VolumeID); err != nil {
				return err // attached to a journal: retry until detached
			}
		}
	}
	pr.api.Delete(p, pvKey)
	return nil
}

// ResolveClaimVolume returns a bound PVC and the PV holding its array
// volume, read from the informer cache (no API call).
func ResolveClaimVolume(api *platform.APIServer, namespace, name string) (*platform.PersistentVolumeClaim, *platform.PersistentVolume, error) {
	key := platform.ObjectKey{Kind: platform.KindPVC, Namespace: namespace, Name: name}
	obj, ok := api.Cached(key)
	if !ok {
		return nil, nil, &platform.StatusError{Err: platform.ErrNotFound, Key: key}
	}
	claim := obj.(*platform.PersistentVolumeClaim)
	if claim.Status.VolumeName == "" {
		return nil, nil, fmt.Errorf("%w: %s/%s", ErrClaimNotBound, namespace, name)
	}
	key = platform.ObjectKey{Kind: platform.KindPV, Name: claim.Status.VolumeName}
	pvObj, ok := api.Cached(key)
	if !ok {
		return nil, nil, &platform.StatusError{Err: platform.ErrNotFound, Key: key}
	}
	return claim, pvObj.(*platform.PersistentVolume), nil
}
