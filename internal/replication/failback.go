package replication

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ErrNotFailedOver reports a Failback attempt on a group that never failed
// over.
var ErrNotFailedOver = errors.New("replication: group has not failed over")

// ErrFailedBack reports a Failback attempt on a group that has already failed
// back: its journal is gone and its reverse group runs.
var ErrFailedBack = errors.New("replication: group has already failed back")

// FailbackStats describes what a resync moved.
type FailbackStats struct {
	// DeltaBlocks is the number of blocks copied (changed at the backup
	// since failover, plus blocks that had diverged at the old source).
	DeltaBlocks int
	// TotalBlocks is what a full resync would have copied (written blocks
	// on the backup volumes) — the baseline the delta saves against.
	TotalBlocks int
	// Bytes is the payload moved across the reverse link.
	Bytes int64
}

// Failback resynchronizes the original source site from a failed-over
// group's targets, once, and returns a new Group replicating in the reverse
// direction (backup → original source) with as many lanes as the old one,
// every lane on reversePath. This is the disaster-recovery step after the
// main site returns (§I's DR context, [6][7]):
//
//  1. the backup volumes' new writes start journaling into a fresh reverse
//     consistency group (so production at the backup site continues
//     un-slowed during the resync);
//  2. the delta — blocks written at the backup since failover, plus blocks
//     the old source had written that never reached the backup (the
//     stranded journal backlog) — is copied back by the reverse group's own
//     bulk copy, each volume over its lane;
//  3. the reverse drain starts, bringing the old source continuously in
//     sync; the operator can later do a planned switchback.
//
// The old source's stranded journal is discarded (that data was lost by
// the disaster; the backup's history won) and its volumes' journal
// attachments are replaced by the reverse group's.
func (old *Group) Failback(p *sim.Proc, source *storage.Array, reversePath fabric.Path) (*Group, FailbackStats, error) {
	var stats FailbackStats
	if !old.failedOver {
		return nil, stats, ErrNotFailedOver
	}
	if old.failedBack {
		return nil, stats, ErrFailedBack
	}

	members := old.journal.Members()

	// Blocks that diverged on the old source: the stranded backlog plus
	// anything abandoned in flight at the split.
	diverged := make(map[storage.VolumeID][]int64)
	for _, rec := range old.UnappliedRecords() {
		diverged[rec.Volume] = append(diverged[rec.Volume], rec.Block)
	}
	// Drop the stranded journal: the backup's history is authoritative now.
	if err := source.DeleteShardedJournal(old.journal.ID()); err != nil {
		return nil, stats, err
	}

	// Reverse consistency group over the same volume IDs on the backup array,
	// attached before the copy so concurrent production writes are journaled
	// and applied after.
	rj, err := old.target.CreateConsistencyGroup("fb-"+old.name, members, old.Lanes())
	if err != nil {
		return nil, stats, err
	}
	reverse, err := NewGroup(old.env, "fb-"+old.name, rj, source,
		slices.Repeat([]fabric.Path{reversePath}, old.Lanes()), old.cfg)
	if err != nil {
		return nil, stats, err
	}

	// Delta resync: backup content wins for every block in the union.
	for _, src := range members {
		bv, err := old.target.Volume(src)
		if err != nil {
			return nil, stats, err
		}
		sv, err := source.Volume(src)
		if err != nil {
			return nil, stats, err
		}
		stats.TotalBlocks += len(bv.WrittenBlocks())
		blocks := append(bv.ChangedBlocks(), diverged[src]...)
		slices.Sort(blocks)
		blocks = slices.Compact(blocks)
		if err := reverse.bulkCopy(p, bv, blocks); err != nil {
			return nil, stats, fmt.Errorf("replication: failback %s: %w", src, err)
		}
		stats.DeltaBlocks += len(blocks)
		stats.Bytes += int64(len(blocks) * bv.BlockSize())
		bv.StopChangeTracking()
		// The old source is now the replication target: protect it.
		sv.SetReadOnly(true)
	}
	reverse.Start()
	old.failedBack = true
	return reverse, stats, nil
}
