package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/csiplugin"
	"repro/internal/db"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// SnapshotBackup performs demo step 2 (Fig. 5): create a group-atomic
// snapshot of the namespace's volumes at the backup site. CSI
// VolumeGroupSnapshot was alpha and unsupported by the storage plugin (§II),
// so — as in the paper — the storage array is operated directly, outside
// the container platform; it takes no simulated time.
func (sys *System) SnapshotBackup(namespace, snapName string) (*storage.SnapshotGroup, error) {
	vols := sys.backupVolumeIDs(namespace)
	if len(vols) == 0 {
		return nil, fmt.Errorf("core: no backup volumes for namespace %s (backup enabled?)", namespace)
	}
	return sys.Backup.Array.CreateSnapshotGroup(snapName, vols)
}

// backupVolumeIDs lists the namespace's replicated volume IDs in
// journal-member order (sales, stock, ... as discovered by the operator).
func (sys *System) backupVolumeIDs(namespace string) []storage.VolumeID {
	var out []storage.VolumeID
	for _, g := range sys.Groups(namespace) {
		out = append(out, g.Members()...)
	}
	return out
}

// AnalyticsDBs performs demo step 3 (Fig. 6): open read-only databases on
// the snapshot volumes for the data-analytics application. The returned
// views run WAL replay in memory; the snapshots are untouched.
func (sys *System) AnalyticsDBs(p *sim.Proc, namespace string, group *storage.SnapshotGroup) (sales, stock *db.View, err error) {
	salesSnap := group.Snapshot(csiplugin.VolumeIDForClaim(namespace, "sales"))
	stockSnap := group.Snapshot(csiplugin.VolumeIDForClaim(namespace, "stock"))
	if salesSnap == nil || stockSnap == nil {
		return nil, nil, fmt.Errorf("core: snapshot group %s missing sales/stock members", group.Name())
	}
	if sales, err = db.OpenView(p, namespace+"/sales@snap", salesSnap, sys.Cfg.DB); err != nil {
		return nil, nil, err
	}
	if stock, err = db.OpenView(p, namespace+"/stock@snap", stockSnap, sys.Cfg.DB); err != nil {
		return nil, nil, err
	}
	return sales, stock, nil
}

// FailoverResult is what recovery at the backup site yields.
type FailoverResult struct {
	// Sales and Stock are the recovered databases at the backup site.
	Sales, Stock *db.DB
	// RecoveryTime is the simulated downtime: journal-image recovery (WAL
	// replay) for both databases.
	RecoveryTime time.Duration
}

// ErrNothingToFailBack reports a Failback that found no group to resync: none
// has failed over, or an earlier Failback resynced every one that has.
var ErrNothingToFailBack = errors.New("core: no failed-over groups to fail back")

// FailbackResult reports a completed failback resynchronization.
type FailbackResult struct {
	// Reverse holds the running backup→main replication groups.
	Reverse []*replication.Group
	// DeltaBlocks and FullBlocks aggregate the resync saving across groups.
	DeltaBlocks, FullBlocks int
	// ResyncTime is the simulated time the delta copy took.
	ResyncTime time.Duration
}

// Failback resynchronizes the main site from the failed-over backup and
// starts reverse replication, using each group's delta bitmap. Call after
// Failover once the main site is reachable again. A group an earlier
// Failback resynced is skipped; with no group left to resync, Failback
// returns ErrNothingToFailBack.
func (sys *System) Failback(p *sim.Proc) (*FailbackResult, error) {
	var res FailbackResult
	start := p.Now()
	for _, g := range sys.Replication.AllGroups() {
		if !g.FailedOver() {
			continue
		}
		reverse, stats, err := g.Failback(p, sys.Main.Array, sys.ReversePathFor(sys.Replication.NamespaceOf(g)))
		if errors.Is(err, replication.ErrFailedBack) {
			continue // resynced by an earlier Failback
		}
		if err != nil {
			return nil, err
		}
		res.Reverse = append(res.Reverse, reverse)
		sys.reverse = append(sys.reverse, reverse)
		res.DeltaBlocks += stats.DeltaBlocks
		res.FullBlocks += stats.TotalBlocks
	}
	if len(res.Reverse) == 0 {
		return nil, ErrNothingToFailBack
	}
	res.ResyncTime = p.Now() - start
	return &res, nil
}

// Failover performs backup-site recovery: stop replication, make the
// backup volumes writable, and run database crash recovery on them. The
// paper's claim is that this succeeds because consistency groups kept the
// backup data consistent; E6 shows it failing (collapsed data) without
// them.
func (sys *System) Failover(p *sim.Proc, namespace string) (*FailoverResult, error) {
	groups := sys.Groups(namespace)
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: nothing to fail over for namespace %s", namespace)
	}
	for _, g := range groups {
		if _, err := g.Failover(); err != nil {
			return nil, err
		}
	}
	sys.Telemetry.Instant("failover", "site-cut", namespace)
	start := p.Now()
	salesVol, err := sys.Backup.Array.Volume(csiplugin.VolumeIDForClaim(namespace, "sales"))
	if err != nil {
		return nil, err
	}
	stockVol, err := sys.Backup.Array.Volume(csiplugin.VolumeIDForClaim(namespace, "stock"))
	if err != nil {
		return nil, err
	}
	sales, err := db.Open(p, namespace+"/sales@backup", salesVol, sys.Cfg.DB)
	if err != nil {
		return nil, err
	}
	stock, err := db.Open(p, namespace+"/stock@backup", stockVol, sys.Cfg.DB)
	if err != nil {
		return nil, err
	}
	return &FailoverResult{Sales: sales, Stock: stock, RecoveryTime: p.Now() - start}, nil
}
