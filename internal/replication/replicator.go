package replication

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Replicator is the control-plane-facing surface of the ADC engine. Group is
// the one implementation; the replication plugin, core, fleet and the
// benchmark operate on this interface so tests can substitute a fake.
type Replicator interface {
	Name() string
	Stop()
	Stopped() bool

	// CatchUp blocks until every journaled record is applied (or the
	// engine stops), reporting whether it fully caught up.
	CatchUp(p *sim.Proc) bool
	// Resync recovers a pair suspended by a journal overflow with a delta
	// copy of the change-tracked blocks.
	Resync(p *sim.Proc, source *storage.Array) error

	RPO(now time.Duration) time.Duration
	Backlog() int
	AppliedRecords() int64
	AppliedBytes() int64
	// AppliedHighWater and OrderBreaks are what the engine keeps of the
	// records it has applied: the highest GlobalSeq and Epoch, and the count
	// of installs out of per-volume ack order. No applied record is kept.
	AppliedHighWater() (globalSeq, epoch int64)
	OrderBreaks() int64
	UnappliedRecords() []storage.Record
	// CommittedEpoch and EpochCommits describe the barrier rule's cuts; a
	// single lane committing for itself declares none.
	CommittedEpoch() int64
	EpochCommits() int64

	// Journal returns the source consistency-group journal, Members its
	// volumes in attach order, JournalID its identifier (shard journals
	// carry derived IDs).
	Journal() *storage.ShardedJournal
	Members() []storage.VolumeID
	JournalID() string

	// Lanes returns the engine's active drain-lane count. The reconcile
	// loop diffs it against the declared shard count to detect reshard work.
	Lanes() int
	// Reshard transitions the engine to len(paths) drain lanes via an
	// epoch-bounded live migration (lane k drains shard k over paths[k]);
	// Resharding reports whether that migration window is still open and
	// MigrationBarrier the epoch the most recent one sealed.
	Reshard(p *sim.Proc, paths []fabric.Path) (storage.ReshardStats, error)
	Resharding() bool
	MigrationBarrier() int64

	Failover() ([]*storage.Volume, error)
	FailedOver() bool
	// Failback resynchronizes source from a failed-over engine's targets
	// and starts replication in the reverse direction, every lane over
	// reversePath.
	Failback(p *sim.Proc, source *storage.Array, reversePath fabric.Path) (*Group, FailbackStats, error)
}

var _ Replicator = (*Group)(nil)
