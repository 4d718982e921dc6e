package replication

import (
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// SyncVolume implements synchronous data copy: a write is acknowledged only
// after the data is applied at the remote twin and the ack crosses back.
// The added latency is serialization + one forward propagation + remote
// media time + one reverse propagation — the business-processing impact the
// paper's §V credits SDC with.
type SyncVolume struct {
	source  *storage.Volume
	target  *storage.Volume
	forward fabric.Path
	reverse fabric.Path
}

// NewSyncVolume pairs a source volume with its remote twin over a link pair.
func NewSyncVolume(source, target *storage.Volume, links *netlink.Pair) *SyncVolume {
	return &SyncVolume{source: source, target: target, forward: links.Forward, reverse: links.Reverse}
}

// WriteOwned stores the block locally, mirrors it remotely, and returns after
// the remote ack. The returned Ack is the local one (its GlobalSeq still
// defines the ack order; SDC guarantees the remote has it too). Both sites
// adopt the one slice: an overwrite at either installs a fresh one there and
// leaves the other's intact.
func (sv *SyncVolume) WriteOwned(p *sim.Proc, block int64, data []byte) (storage.Ack, error) {
	ack, err := sv.source.WriteOwned(p, block, data)
	if err != nil {
		return storage.Ack{}, err
	}
	sv.forward.Transfer(p, sv.source.BlockSize()+64) // a whole block, whatever prefix data is
	if err := sv.target.Apply(p, block, data); err != nil {
		return storage.Ack{}, err
	}
	sv.reverse.Transfer(p, 64) // ack frame
	return ack, nil
}

// WriteOwnedBlocks mirrors the vector one block at a time: every SDC write
// waits for its own remote ack, so a gather saves nothing here.
func (sv *SyncVolume) WriteOwnedBlocks(p *sim.Proc, ios []storage.BlockIO) error {
	for _, io := range ios {
		if _, err := sv.WriteOwned(p, io.Block, io.Data); err != nil {
			return err
		}
	}
	return nil
}

// Read serves from the local volume (SDC reads are always local), borrowed
// as every storage read is.
func (sv *SyncVolume) Read(p *sim.Proc, block int64) ([]byte, error) {
	return sv.source.Read(p, block)
}

// ReadRange serves a sequential scan from the local volume, as Read does.
func (sv *SyncVolume) ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error) {
	return sv.source.ReadRange(p, start, count)
}

// ReadBlocks serves a scatter read from the local volume, as Read does.
func (sv *SyncVolume) ReadBlocks(p *sim.Proc, ios []storage.BlockIO) error {
	return sv.source.ReadBlocks(p, ios)
}

// SizeBlocks returns the local volume size.
func (sv *SyncVolume) SizeBlocks() int64 { return sv.source.SizeBlocks() }

// BlockSize returns the local volume's block size.
func (sv *SyncVolume) BlockSize() int { return sv.source.BlockSize() }
