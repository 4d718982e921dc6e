package csiplugin

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
)

// FeatureGates mirrors the CSI feature state the paper describes: volume
// group snapshots were an alpha feature the storage plugin did not yet
// support, so group snapshots required direct array operations. Flip
// VolumeGroupSnapshot to model "the technical advancements in the CSI and
// the storage plugin in the future" (§II).
type FeatureGates struct {
	VolumeGroupSnapshot bool
}

// SnapshotController reconciles VolumeGroupSnapshot custom resources
// against one site's array, gate permitting.
type SnapshotController struct {
	api   *platform.APIServer
	array *storage.Array
	gates FeatureGates
	ctrl  *platform.Controller

	snapshots int64
	refused   int64
}

// NewSnapshotController builds the controller for one site.
func NewSnapshotController(env *sim.Env, api *platform.APIServer, array *storage.Array, gates FeatureGates) *SnapshotController {
	sc := &SnapshotController{api: api, array: array, gates: gates}
	sc.ctrl = platform.NewController(env, api, "snapshot-group-ctrl", platform.KindVolumeGroupSnapshot,
		nil, platform.ReconcilerFunc(sc.reconcileGroup), platform.ControllerConfig{})
	return sc
}

// Start launches the controller.
func (sc *SnapshotController) Start() { sc.ctrl.Start() }

// Stop halts the controller.
func (sc *SnapshotController) Stop() { sc.ctrl.Stop() }

// Snapshots returns how many volume snapshots the controller created.
func (sc *SnapshotController) Snapshots() int64 { return sc.snapshots }

// Refused returns how many group requests the feature gate rejected.
func (sc *SnapshotController) Refused() int64 { return sc.refused }

// reconcileGroup reads the informer cache (APIServer.Cached); only its
// writes are round trips.
func (sc *SnapshotController) reconcileGroup(p *sim.Proc, key platform.ObjectKey) error {
	obj, err := sc.api.Cached(key)
	if errors.Is(err, platform.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	status := obj.(*platform.VolumeGroupSnapshot).Status
	if status.Ready {
		return nil
	}
	if !sc.gates.VolumeGroupSnapshot && status.Message == ErrFeatureGateDisabled.Error() {
		return nil // refusal already recorded
	}
	snap := obj.DeepCopy().(*platform.VolumeGroupSnapshot) // status written back below
	if !sc.gates.VolumeGroupSnapshot {
		// The paper's reality: alpha feature unsupported; the user must
		// operate the array directly. Record the refusal in status and do
		// not retry (the condition is permanent until the gate flips).
		snap.Status.Message = ErrFeatureGateDisabled.Error()
		sc.refused++
		return sc.api.Update(p, snap)
	}
	var vols []storage.VolumeID
	for _, pvcName := range snap.Spec.PVCNames {
		pv, err := resolveClaimVolume(sc.api, snap.Namespace, pvcName)
		if err != nil {
			return err
		}
		vols = append(vols, pv.Spec.VolumeID)
	}
	groupName := fmt.Sprintf("snapgrp-%s-%s", snap.Namespace, snap.Name)
	g, err := sc.array.CreateSnapshotGroup(groupName, vols)
	if err != nil && !errors.Is(err, storage.ErrSnapshotExists) {
		return err
	}
	if g == nil {
		if g, err = sc.array.SnapshotGroupByName(groupName); err != nil {
			return err
		}
	}
	snap.Status.Ready = true
	snap.Status.GroupName = groupName
	for _, s := range g.Snapshots() {
		snap.Status.SnapshotIDs = append(snap.Status.SnapshotIDs, s.ID())
	}
	snap.Status.Message = "snapshot group ready"
	if err := sc.api.Update(p, snap); err != nil {
		return err
	}
	sc.snapshots += int64(len(vols))
	return nil
}
