package storage

import (
	"fmt"

	"repro/internal/sim"
)

// CloneVolume provisions a new volume containing a snapshot's image — the
// "development from snapshot" pattern (mount backup data for test systems),
// and the restore path: clone yesterday's snapshot, recover the databases on
// the clone (examples/ransomware).
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
	write := func(b int64, data []byte) {
		chargeBatch(p, a.controller, 1, a.cfg.WriteLatency, false)
		clone.put(b, data) // shared with the parent; neither ever writes into it
		clone.countWrite()
	}
	for b, orig := range s.saved {
		if orig != nil {
			write(b, orig)
		}
	}
	for _, b := range s.parent.WrittenBlocks() {
		if _, saved := s.saved[b]; !saved {
			write(b, s.parent.block(b))
		}
	}
	return clone, nil
}
