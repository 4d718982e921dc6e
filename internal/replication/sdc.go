package replication

import (
	"bytes"
	"time"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BlockWriter is the host-facing write interface. storage.Volume satisfies
// it for unreplicated and ADC volumes (ADC acks locally); SyncVolume wraps a
// pair for SDC. The database layer writes through this interface so the
// replication mode is a drop-in configuration choice, which is how the E5
// slowdown experiment swaps modes.
type BlockWriter interface {
	// Write copies data in; the caller keeps its buffer.
	Write(p *sim.Proc, block int64, data []byte) (storage.Ack, error)
	// WriteOwned adopts data as the stored block: the caller gives the buffer
	// up and never writes into it again. Latency, journaling and counters are
	// Write's — Write is WriteOwned of a copy.
	WriteOwned(p *sim.Proc, block int64, data []byte) (storage.Ack, error)
	// WriteOwnedBlocks is one gathered write: every Data is adopted as
	// WriteOwned adopts one and the blocks are acked in slice order; it has
	// returned only when all of them are (the caller's write barrier).
	WriteOwnedBlocks(p *sim.Proc, ios []storage.BlockIO) error
	// Read borrows: nil for a never-written block, else the stored slice,
	// which the caller must not modify (see storage.Volume.Read).
	Read(p *sim.Proc, block int64) ([]byte, error)
	// ReadRange is count consecutive Reads as one fused sequential scan,
	// sparse and borrowed block by block.
	ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error)
	// ReadBlocks is one scatter read: each Data is filled as Read would.
	ReadBlocks(p *sim.Proc, ios []storage.BlockIO) error
	SizeBlocks() int64
	BlockSize() int
}

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

	writes    int64
	remoteLag time.Duration // cumulative remote round-trip overhead
}

// NewSyncVolume pairs a source volume with its remote twin over a link pair.
func NewSyncVolume(source, target *storage.Volume, links *netlink.Pair) *SyncVolume {
	return NewSyncVolumeOnPaths(source, target, links.Forward, links.Reverse)
}

// NewSyncVolumeOnPaths is NewSyncVolume over explicit forward/reverse
// transfer paths — how an SDC pair rides a QoS-classed inter-site fabric.
func NewSyncVolumeOnPaths(source, target *storage.Volume, forward, reverse fabric.Path) *SyncVolume {
	return &SyncVolume{source: source, target: target, forward: forward, reverse: reverse}
}

// Write is WriteOwned of a copy: the caller keeps its buffer.
func (sv *SyncVolume) Write(p *sim.Proc, block int64, data []byte) (storage.Ack, error) {
	return sv.WriteOwned(p, block, bytes.Clone(data))
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
	start := p.Now()
	sv.forward.Transfer(p, len(data)+64)
	if err := sv.target.Apply(p, block, data); err != nil {
		return storage.Ack{}, err
	}
	sv.reverse.Transfer(p, 64) // ack frame
	sv.remoteLag += p.Now() - start
	sv.writes++
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

// Source returns the local volume.
func (sv *SyncVolume) Source() *storage.Volume { return sv.source }

// Writes returns the number of mirrored writes.
func (sv *SyncVolume) Writes() int64 { return sv.writes }

// MeanRemoteOverhead returns the average per-write latency added by the
// synchronous mirror, or 0 with no writes.
func (sv *SyncVolume) MeanRemoteOverhead() time.Duration {
	if sv.writes == 0 {
		return 0
	}
	return sv.remoteLag / time.Duration(sv.writes)
}

var _ BlockWriter = (*SyncVolume)(nil)
var _ BlockWriter = (*storage.Volume)(nil)
