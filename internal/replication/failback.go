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
// group's targets, once, and returns a new one-lane Group replicating in the
// reverse direction (backup → original source). This is the disaster-recovery step
// after the main site returns (§I's DR context, [6][7]):
//
//  1. the backup volumes' new writes start journaling into a fresh reverse
//     consistency group (so production at the backup site continues
//     un-slowed during the resync);
//  2. the delta — blocks written at the backup since failover, plus blocks
//     the old source had written that never reached the backup (the
//     stranded journal backlog) — is copied back over the reverse link;
//  3. the reverse drain starts, bringing the old source continuously in
//     sync; the operator can later do a planned switchback.
//
// The old source's stranded journal is discarded (that data was lost by
// the disaster; the backup's history won) and its volumes' journal
// attachments are replaced by the reverse group's.
func (old *Group) Failback(p *sim.Proc, source *storage.Array, reversePath fabric.Path, cfg Config) (*Group, FailbackStats, error) {
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
	diverged := make(map[storage.VolumeID]map[int64]bool)
	for _, rec := range old.UnappliedRecords() {
		if diverged[rec.Volume] == nil {
			diverged[rec.Volume] = make(map[int64]bool)
		}
		diverged[rec.Volume][rec.Block] = true
	}
	// Drop the stranded journal: the backup's history is authoritative now.
	if err := source.DeleteShardedJournal(old.journal.ID()); err != nil {
		return nil, stats, err
	}

	// Reverse consistency group on the backup array, attached before the
	// copy so concurrent production writes are journaled and applied after.
	reverseVols := make([]storage.VolumeID, len(members))
	reverseMapping := make(map[storage.VolumeID]storage.VolumeID, len(members))
	for i, src := range members {
		dst := old.mapping[src]
		reverseVols[i] = dst
		reverseMapping[dst] = src
	}
	rj, err := old.target.CreateConsistencyGroup("fb-"+old.name, reverseVols, 1)
	if err != nil {
		return nil, stats, err
	}
	reverse, err := NewGroup(old.env, "fb-"+old.name, rj, source, reverseMapping, []fabric.Path{reversePath}, cfg)
	if err != nil {
		return nil, stats, err
	}

	// Delta resync: backup content wins for every block in the union.
	for _, src := range members {
		dst := old.mapping[src]
		bv, err := old.target.Volume(dst)
		if err != nil {
			return nil, stats, err
		}
		sv, err := source.Volume(src)
		if err != nil {
			return nil, stats, err
		}
		stats.TotalBlocks += len(bv.WrittenBlocks())
		delta := make(map[int64]bool)
		for _, b := range bv.ChangedBlocks() {
			delta[b] = true
		}
		for b := range diverged[src] {
			delta[b] = true
		}
		blocks := make([]int64, 0, len(delta))
		for b := range delta {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
		for _, b := range blocks {
			// Borrowed from the backup and adopted by the source: no copy.
			// A diverged block the backup never wrote resyncs as zeroes.
			data := resyncBlock(bv, b)
			reversePath.Transfer(p, bv.BlockSize()+64)
			if err := sv.Apply(p, b, data); err != nil {
				return nil, stats, fmt.Errorf("replication: failback apply %s[%d]: %w", src, b, err)
			}
			stats.DeltaBlocks++
			stats.Bytes += int64(bv.BlockSize())
		}
		bv.StopChangeTracking()
		// The old source is now the replication target: protect it.
		sv.SetReadOnly(true)
	}
	reverse.Start()
	old.failedBack = true
	return reverse, stats, nil
}
