package storage

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sim"
)

// RestoreSnapshot rolls a volume back to a snapshot's point-in-time image —
// the array-side recovery the paper's §I motivates for cyber-attacks and
// misoperations: mount yesterday's snapshot group, discard today's damage.
// The volume must not be attached to a journal (detach before rewinding a
// replication source, or the rewind itself would replicate as new writes).
// The restore consumes media time proportional to the blocks that changed
// since the snapshot.
func (a *Array) RestoreSnapshot(p *sim.Proc, snapID string) error {
	s, ok := a.snapshots[snapID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchSnapshot, snapID)
	}
	v := s.parent
	if v.journal != nil {
		return fmt.Errorf("storage: restore %s: volume %s is journal-attached; detach first", snapID, v.id)
	}
	// Only blocks preserved by COW differ from the snapshot image; rewind
	// exactly those. Other snapshots of the volume observe the rewind as
	// ordinary overwrites (their COW fires), so they stay correct.
	for _, b := range slices.Sorted(maps.Keys(s.saved)) {
		chargeBatch(p, a.controller, 1, a.cfg.WriteLatency, false)
		orig := s.saved[b]
		v.preserveForSnapshots(b)
		if orig == nil {
			delete(v.blocks, b) // block was unwritten at snapshot time
		} else {
			v.blocks[b] = orig // adopted: stored blocks are never written into
		}
		v.writes++
		a.writeOps.Add(1)
	}
	// The snapshot now matches the parent again; its COW set resets.
	s.saved = make(map[int64][]byte)
	return nil
}

// CloneVolume provisions a new volume containing a snapshot's image — the
// "development from snapshot" pattern (mount backup data for test systems).
// The clone is a full copy and consumes media time per copied block.
func (a *Array) CloneVolume(p *sim.Proc, snapID string, newID VolumeID) (*Volume, error) {
	s, ok := a.snapshots[snapID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchSnapshot, snapID)
	}
	clone, err := a.CreateVolume(newID, s.parent.sizeBlocks)
	if err != nil {
		return nil, err
	}
	// The snapshot image = preserved originals overlaid on parent blocks
	// that were never overwritten.
	seen := make(map[int64]bool)
	write := func(b int64, data []byte) {
		chargeBatch(p, a.controller, 1, a.cfg.WriteLatency, false)
		clone.blocks[b] = data // shared with the parent; neither ever writes into it
		clone.writes++
		a.writeOps.Add(1)
		a.bytesWritten.Add(int64(len(data)))
	}
	for b, orig := range s.saved {
		seen[b] = true
		if orig != nil {
			write(b, orig)
		}
	}
	for b, cur := range s.parent.blocks {
		if !seen[b] {
			write(b, cur)
		}
	}
	return clone, nil
}
