package storage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Snapshot is a copy-on-write duplicate of a volume frozen at creation time.
// Reading a block returns the content the parent had at the snapshot
// instant: the preserved original if the parent has since overwritten it,
// otherwise the parent's (unchanged) current content.
type Snapshot struct {
	id      string
	parent  *Volume
	takenAt time.Duration
	saved   map[int64][]byte // block -> original content (nil = was unwritten)
	group   string           // owning snapshot group, "" for standalone
}

// CreateSnapshot freezes a point-in-time image of the volume. Creation is
// instantaneous (arrays only install COW metadata), so within one simulated
// instant the image is exact.
func (a *Array) CreateSnapshot(id string, vol VolumeID) (*Snapshot, error) {
	if _, ok := a.snapshots[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSnapshotExists, id)
	}
	v, ok := a.volumes[vol]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchVolume, vol)
	}
	s := &Snapshot{
		id:      id,
		parent:  v,
		takenAt: a.env.Now(),
		saved:   make(map[int64][]byte),
	}
	v.snapshots = append(v.snapshots, s)
	a.snapshots[id] = s
	return s, nil
}

// Snapshot returns the snapshot with the given ID.
func (a *Array) Snapshot(id string) (*Snapshot, error) {
	s, ok := a.snapshots[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchSnapshot, id)
	}
	return s, nil
}

// DeleteSnapshot releases a snapshot and its preserved blocks.
func (a *Array) DeleteSnapshot(id string) error {
	s, ok := a.snapshots[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchSnapshot, id)
	}
	v := s.parent
	for i, ps := range v.snapshots {
		if ps == s {
			v.snapshots = append(v.snapshots[:i], v.snapshots[i+1:]...)
			break
		}
	}
	delete(a.snapshots, id)
	return nil
}

// DeleteVolumeSnapshots releases every snapshot of the volume, shrinking
// (and, once empty, removing) any snapshot groups they belong to — the
// cleanup step tenant decommissioning runs before deleting the volume.
func (a *Array) DeleteVolumeSnapshots(id VolumeID) error {
	v, ok := a.volumes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchVolume, id)
	}
	for _, s := range append([]*Snapshot(nil), v.snapshots...) {
		if g, ok := a.groups[s.group]; ok {
			for i, gs := range g.snaps {
				if gs == s {
					g.snaps = append(g.snaps[:i], g.snaps[i+1:]...)
					break
				}
			}
			if len(g.snaps) == 0 {
				delete(a.groups, s.group)
			}
		}
		if err := a.DeleteSnapshot(s.id); err != nil {
			return err
		}
	}
	return nil
}

// ListSnapshots returns all snapshot IDs in lexical order.
func (a *Array) ListSnapshots() []string {
	out := make([]string, 0, len(a.snapshots))
	for id := range a.snapshots {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ID returns the snapshot identifier.
func (s *Snapshot) ID() string { return s.id }

// Parent returns the snapped volume.
func (s *Snapshot) Parent() *Volume { return s.parent }

// TakenAt returns the snapshot creation instant.
func (s *Snapshot) TakenAt() time.Duration { return s.takenAt }

// SizeBlocks returns the parent volume's size in blocks.
func (s *Snapshot) SizeBlocks() int64 { return s.parent.sizeBlocks }

// BlockSize returns the array's block size in bytes.
func (s *Snapshot) BlockSize() int { return s.parent.array.cfg.BlockSize }

// Group returns the owning snapshot group name, or "" if standalone.
func (s *Snapshot) Group() string { return s.group }

// SavedBlocks returns how many original blocks the snapshot preserves (its
// COW space cost).
func (s *Snapshot) SavedBlocks() int { return len(s.saved) }

// Read returns the block content as of the snapshot instant, consuming the
// array's read service time. Like every read it is borrowed (Volume.Read):
// nil for a block unwritten at the snapshot instant, otherwise the stored
// slice — a preserved original, or the parent's block the parent has not
// overwritten since, which a later overwrite replaces rather than modifies.
func (s *Snapshot) Read(p *sim.Proc, block int64) ([]byte, error) {
	if block < 0 || block >= s.parent.sizeBlocks {
		return nil, fmt.Errorf("%w: snapshot %s[%d]", ErrOutOfRange, s.id, block)
	}
	s.chargeReads(p, 1, false)
	return s.stored(block), nil
}

// chargeReads passes the service time of one n-block read request on the
// array controller (snapshots are served by the shared controller even in
// isolated mode) and counts the n reads.
func (s *Snapshot) chargeReads(p *sim.Proc, n int, yields bool) {
	a := s.parent.array
	chargeBatch(p, a.controller, n, ReadLatency, yields)
	a.readOps += int64(n)
}

// ReadRange reads count consecutive snapshot blocks starting at start as one
// request, like Volume.ReadRange.
func (s *Snapshot) ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error) {
	if count < 0 || start < 0 || start+int64(count) > s.parent.sizeBlocks {
		return nil, fmt.Errorf("%w: snapshot %s[%d..%d)", ErrOutOfRange, s.id, start, start+int64(count))
	}
	s.chargeReads(p, count, false)
	out := make([][]byte, count)
	for i := range out {
		out[i] = s.stored(start + int64(i))
	}
	return out, nil
}

// ReadBlocks is one scatter read of snapshot-time blocks, like
// Volume.ReadBlocks: validated whole, then charged, then filled.
func (s *Snapshot) ReadBlocks(p *sim.Proc, ios []BlockIO) error {
	for _, io := range ios {
		if io.Block < 0 || io.Block >= s.parent.sizeBlocks {
			return fmt.Errorf("%w: snapshot %s[%d]", ErrOutOfRange, s.id, io.Block)
		}
	}
	s.chargeReads(p, len(ios), true)
	for i := range ios {
		ios[i].Data = s.stored(ios[i].Block)
	}
	return nil
}

// Peek returns the snapshot-time block without consuming simulated time —
// borrowed, like Read (verification helper).
func (s *Snapshot) Peek(block int64) []byte { return s.stored(block) }

// stored returns the slice holding the snapshot-time content of the block:
// the preserved original if the parent has overwritten it since, otherwise
// the parent's current block; nil when the block was unwritten.
func (s *Snapshot) stored(block int64) []byte {
	if orig, saved := s.saved[block]; saved {
		return orig
	}
	return s.parent.blocks[block]
}

// SnapshotGroup is a set of snapshots created atomically across multiple
// volumes — the array's snapshot-group function (§III-A2). Because creation
// happens at a single simulated instant, the images are mutually consistent
// whenever the underlying volumes are.
type SnapshotGroup struct {
	name    string
	takenAt time.Duration
	snaps   []*Snapshot
}

// CreateSnapshotGroup snapshots every listed volume at the same instant.
// On any failure no snapshots are left behind.
func (a *Array) CreateSnapshotGroup(name string, vols []VolumeID) (*SnapshotGroup, error) {
	if _, ok := a.groups[name]; ok {
		return nil, fmt.Errorf("%w: group %s", ErrSnapshotExists, name)
	}
	g := &SnapshotGroup{name: name, takenAt: a.env.Now()}
	for _, vol := range vols {
		id := name + "/" + string(vol)
		s, err := a.CreateSnapshot(id, vol)
		if err != nil {
			for _, done := range g.snaps {
				_ = a.DeleteSnapshot(done.id)
			}
			return nil, err
		}
		s.group = name
		g.snaps = append(g.snaps, s)
	}
	a.groups[name] = g
	return g, nil
}

// SnapshotGroupByName returns a previously created group.
func (a *Array) SnapshotGroupByName(name string) (*SnapshotGroup, error) {
	g, ok := a.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: group %s", ErrNoSuchSnapshot, name)
	}
	return g, nil
}

// DeleteSnapshotGroup removes the group and all member snapshots.
func (a *Array) DeleteSnapshotGroup(name string) error {
	g, ok := a.groups[name]
	if !ok {
		return fmt.Errorf("%w: group %s", ErrNoSuchSnapshot, name)
	}
	for _, s := range g.snaps {
		_ = a.DeleteSnapshot(s.id)
	}
	delete(a.groups, name)
	return nil
}

// Name returns the group name.
func (g *SnapshotGroup) Name() string { return g.name }

// TakenAt returns the group creation instant.
func (g *SnapshotGroup) TakenAt() time.Duration { return g.takenAt }

// Snapshots returns the member snapshots in creation order.
func (g *SnapshotGroup) Snapshots() []*Snapshot {
	out := make([]*Snapshot, len(g.snaps))
	copy(out, g.snaps)
	return out
}

// Snapshot returns the member snapshot of the given volume, or nil.
func (g *SnapshotGroup) Snapshot(vol VolumeID) *Snapshot {
	for _, s := range g.snaps {
		if s.parent.id == vol {
			return s
		}
	}
	return nil
}
