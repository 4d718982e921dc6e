package experiments

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// SnapshotResult is one row of experiment E3.
type SnapshotResult struct {
	Volumes          int
	OverwriteFrac    float64
	CreateTime       time.Duration // snapshot-group creation (user-visible)
	Atomic           bool          // all members at the same instant
	COWBlocks        int           // originals preserved across the group
	WriteAmplFactor  float64       // extra block copies per overwrite
	SnapshotReadable bool          // originals still readable post-overwrite
}

// E3SnapshotGroup measures the snapshot-development step (Fig. 5): group
// snapshots are created atomically and cost nothing up front; the
// copy-on-write cost arrives only as the parents are overwritten. The sweep
// varies the fraction of blocks overwritten after the snapshot.
//
// Expected shape: creation is instantaneous and atomic at every size; COW
// blocks scale with overwritten blocks (amplification factor ~1, charged
// once per block).
func E3SnapshotGroup(seed int64, volumeCounts []int, overwriteFracs []float64) ([]SnapshotResult, error) {
	const volBlocks = 256
	var out []SnapshotResult
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
			env.Process("preload", func(p *sim.Proc) {
				for _, id := range vols {
					v, _ := array.Volume(id)
					for b := int64(0); b < volBlocks; b++ {
						buf := make([]byte, array.Config().BlockSize)
						buf[0] = byte(b)
						if _, err := v.Write(p, b, buf); err != nil {
							panic(err)
						}
					}
				}
			})
			env.Run(0)

			createStart := env.Now()
			group, err := array.CreateSnapshotGroup("grp", vols)
			if err != nil {
				return nil, err
			}
			res := SnapshotResult{
				Volumes:       n,
				OverwriteFrac: frac,
				CreateTime:    env.Now() - createStart,
				Atomic:        true,
			}
			for _, s := range group.Snapshots() {
				if s.TakenAt() != group.TakenAt() {
					res.Atomic = false
				}
			}

			// Overwrite a fraction of each parent and re-overwrite once
			// more (COW must charge only the first overwrite).
			over := int64(frac * volBlocks)
			env.Process("overwrite", func(p *sim.Proc) {
				for _, id := range vols {
					v, _ := array.Volume(id)
					for round := 0; round < 2; round++ {
						for b := int64(0); b < over; b++ {
							buf := make([]byte, array.Config().BlockSize)
							buf[0] = 0xFF
							if _, err := v.Write(p, b, buf); err != nil {
								panic(err)
							}
						}
					}
				}
			})
			env.Run(0)

			var cow int64
			for _, id := range vols {
				v, _ := array.Volume(id)
				cow += v.COWCopies()
			}
			res.COWBlocks = int(cow)
			if over > 0 {
				res.WriteAmplFactor = float64(cow) / float64(over*int64(n)*2)
			}
			// Snapshot must still serve the pre-overwrite content.
			res.SnapshotReadable = true
			for _, s := range group.Snapshots() {
				for b := int64(0); b < over; b++ {
					if got := s.Peek(b); got == nil || got[0] != byte(b) { // every block was preloaded
						res.SnapshotReadable = false
					}
				}
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// E3Table renders E3 results.
func E3Table(results []SnapshotResult) *Table {
	t := NewTable("E3: snapshot-group creation and copy-on-write cost (Fig. 5)",
		"volumes", "overwrite", "create time", "atomic", "COW blocks", "write ampl", "readable")
	for _, r := range results {
		t.AddRow(r.Volumes, r.OverwriteFrac, r.CreateTime, r.Atomic, r.COWBlocks, r.WriteAmplFactor, r.SnapshotReadable)
	}
	t.AddNote("shape: creation instantaneous+atomic at every size; COW cost proportional to first overwrites only")
	return t
}
