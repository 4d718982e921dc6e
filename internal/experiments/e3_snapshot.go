package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/storage"
)

// E3SnapshotGroup measures the snapshot-development step (Fig. 5): group
// snapshots are created atomically and cost nothing up front; the
// copy-on-write cost arrives only as the parents are overwritten. The sweep
// varies the fraction of blocks overwritten after the snapshot.
//
// Expected shape: creation is instantaneous and atomic at every size; COW
// blocks scale with overwritten blocks (amplification factor ~1, charged
// once per block).
func E3SnapshotGroup(seed int64, volumeCounts []int, overwriteFracs []float64) (*Table, error) {
	const volBlocks = 256
	t := NewTable("E3: snapshot-group creation and copy-on-write cost (Fig. 5)",
		"volumes", "overwrite", "create time", "atomic", "COW blocks", "write ampl", "readable")
	for _, n := range volumeCounts {
		for _, frac := range overwriteFracs {
			env := sim.NewEnv(seed)
			array := storage.NewArray(env, "backup", storage.Config{})
			var vols []storage.VolumeID
			for i := 0; i < n; i++ {
				id := storage.VolumeID(fmt.Sprintf("vol-%03d", i))
				if _, err := array.CreateVolume(id, volBlocks); err != nil {
					return nil, err
				}
				vols = append(vols, id)
			}
			// Preload every block so overwrites have originals to preserve.
			if err := runProc(env, "preload", 0, func(p *sim.Proc) error {
				for _, id := range vols {
					v, _ := array.Volume(id)
					for b := int64(0); b < volBlocks; b++ {
						buf := make([]byte, array.Config().BlockSize)
						buf[0] = byte(b)
						if _, err := v.Write(p, b, buf); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}

			createStart := env.Now()
			group, err := array.CreateSnapshotGroup("grp", vols)
			if err != nil {
				return nil, err
			}
			create := env.Now() - createStart
			atomic := true // all members at the same instant
			for _, s := range group.Snapshots() {
				if s.TakenAt() != group.TakenAt() {
					atomic = false
				}
			}

			// Overwrite a fraction of each parent and re-overwrite once
			// more (COW must charge only the first overwrite).
			over := int64(frac * volBlocks)
			if err := runProc(env, "overwrite", 0, func(p *sim.Proc) error {
				for _, id := range vols {
					v, _ := array.Volume(id)
					for round := 0; round < 2; round++ {
						for b := int64(0); b < over; b++ {
							buf := make([]byte, array.Config().BlockSize)
							buf[0] = 0xFF
							if _, err := v.Write(p, b, buf); err != nil {
								return err
							}
						}
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}

			var cow int64 // originals preserved across the group
			for _, id := range vols {
				v, _ := array.Volume(id)
				cow += v.COWCopies()
			}
			ampl := 0.0 // extra block copies per overwrite
			if over > 0 {
				ampl = float64(cow) / float64(over*int64(n)*2)
			}
			// Snapshot must still serve the pre-overwrite content.
			readable := true
			for _, s := range group.Snapshots() {
				for b := int64(0); b < over; b++ {
					if got := s.Peek(b); got == nil || got[0] != byte(b) { // every block was preloaded
						readable = false
					}
				}
			}
			t.AddRow(n, frac, create, atomic, int(cow), ampl, readable)
		}
	}
	t.AddNote("shape: creation instantaneous+atomic at every size; COW cost proportional to first overwrites only")
	return t, nil
}
