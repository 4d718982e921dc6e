package storage

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"

	"repro/internal/sim"
)

// ShardedJournal is a consistency group's journal, split across 1..N shard
// journals so the replication engine can drain the group on N independent
// lanes. The pieces of the ordering contract:
//
//   - placement: every volume is pinned to one shard by a stable hash of
//     its ID (ShardFor), so all writes to a volume share one shard and the
//     per-volume write order is a per-shard sequence order;
//   - per-shard order: each shard is a Journal whose records ascend by
//     GlobalSeq, the array-wide ack order every write is stamped with;
//   - group epoch: every record is stamped with the epoch open at ack time.
//     SealEpoch atomically closes the epoch, so "all records with epoch <= E"
//     is an exact prefix of the group's cross-volume ack order. The
//     multi-lane drain commits whole epochs at the target — its cross-shard
//     ordering barrier — which is what keeps consistency cuts correct even
//     though lanes drain concurrently.
//
// With one shard the single sequence already is the cross-volume ack order
// (the paper's configuration); nothing seals epochs and the one lane commits
// its own batches.
type ShardedJournal struct {
	env     *sim.Env
	array   *Array
	id      string
	shards  []*Journal
	members []VolumeID // attach order
	epoch   int64      // current open epoch (starts at 1)

	// capacityPerShard bounds every shard's backlog in bytes (0 =
	// unlimited). When an append would exceed it the WHOLE group overflows:
	// the pair suspends (writes stop journaling), every member volume starts
	// change tracking, and the target stays frozen at a consistent prefix
	// until a resync — a group with some shards journaling and some not
	// could never replay a consistent cross-shard cut.
	capacityPerShard int

	// Reshard counters: lifetime transitions and migrated work. A
	// shard-count-unchanged reconcile must leave all three untouched — the
	// zero-migration invariant E15 verifies.
	reshards     int64
	movedVolumes int64
	movedRecords int64

	overflowed bool
	overflows  int64
}

// ShardFor places a volume on one of shards journal shards. The placement
// is a stable hash (FNV-1a) of the volume ID alone — never attach order or
// map iteration — so identically-configured groups place volumes
// identically, run after run.
func ShardFor(id VolumeID, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}

// shardJournalID names one shard's backing journal volume. Shard 0 carries
// the group's own ID — shard IDs are labels, not structure.
func shardJournalID(id string, shard int) string {
	if shard == 0 {
		return id
	}
	return id + "#s" + strconv.Itoa(shard)
}

// CreateConsistencyGroup provisions a consistency group — the array function
// the replication plugin configures: a journal of shards shard journals
// (1 is the paper's single shared journal), unbounded until
// SetCapacityPerShard bounds them, with every listed volume attached to its
// hash-placed shard. The group keeps vols as its membership; the caller must
// not modify the slice afterwards.
func (a *Array) CreateConsistencyGroup(id string, vols []VolumeID, shards int) (*ShardedJournal, error) {
	if shards < 1 {
		return nil, fmt.Errorf("storage: consistency group %s: shards must be >= 1", id)
	}
	if _, ok := a.sharded[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, id)
	}
	sj := &ShardedJournal{
		env:     a.env,
		array:   a,
		id:      id,
		shards:  make([]*Journal, shards),
		members: vols,
		epoch:   1,
	}
	for k := range sj.shards {
		sj.shards[k] = newJournal(sj, shardJournalID(id, k))
	}
	for i, m := range vols {
		v, err := a.Volume(m)
		if err == nil && v.journal != nil {
			err = fmt.Errorf("%w: %s -> %s", ErrJournalAttached, m, v.journal.id)
		}
		if err != nil {
			// Roll back so a failed call leaves no partial group.
			for _, done := range vols[:i] {
				a.volumes[done].journal = nil
			}
			return nil, err
		}
		v.journal = sj.shards[ShardFor(m, shards)]
	}
	a.sharded[id] = sj
	return sj, nil
}

// ShardedJournal returns the consistency-group journal with the given ID.
func (a *Array) ShardedJournal(id string) (*ShardedJournal, error) {
	sj, ok := a.sharded[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJournal, id)
	}
	return sj, nil
}

// DeleteShardedJournal detaches every member volume and removes the group
// with its shard journals.
func (a *Array) DeleteShardedJournal(id string) error {
	sj, ok := a.sharded[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchJournal, id)
	}
	for _, m := range sj.members {
		if v, ok := a.volumes[m]; ok {
			v.journal = nil
		}
	}
	sj.members = nil
	delete(a.sharded, id)
	return nil
}

// ID returns the group journal identifier.
func (sj *ShardedJournal) ID() string { return sj.id }

// Shards returns the shard journals in shard-index order. The replication
// engine runs one drain lane per entry. The slice is the journal's own:
// callers must not modify it, and a Reshard replaces it.
func (sj *ShardedJournal) Shards() []*Journal { return sj.shards }

// ShardCount returns the number of shards.
func (sj *ShardedJournal) ShardCount() int { return len(sj.shards) }

// Members returns the attached volume IDs (the consistency-group
// membership), in attach order across all shards. The slice is the journal's
// own: callers must not modify it.
func (sj *ShardedJournal) Members() []VolumeID { return sj.members }

// ShardIndexOf returns the shard a member volume is placed on (-1 for
// non-members).
func (sj *ShardedJournal) ShardIndexOf(id VolumeID) int {
	if v, ok := sj.array.volumes[id]; !ok || v.journal == nil || v.journal.group != sj {
		return -1
	}
	return ShardFor(id, len(sj.shards))
}

// Epoch returns the current open epoch.
func (sj *ShardedJournal) Epoch() int64 { return sj.epoch }

// SealEpoch atomically closes the open epoch and opens the next, returning
// the sealed epoch. Every record acked before the call carries an epoch <=
// the sealed value and every later ack a greater one, so the sealed set is
// an exact prefix of the group's cross-volume ack order — the barrier the
// multi-lane drain converges on before declaring a consistency cut.
func (sj *ShardedJournal) SealEpoch() int64 {
	sealed := sj.epoch
	sj.epoch++
	return sealed
}

// Pending returns the backlog across all shards.
func (sj *ShardedJournal) Pending() int {
	var n int
	for _, j := range sj.shards {
		n += j.Pending()
	}
	return n
}

// Overflowed reports whether the group has overflowed (pair suspended).
func (sj *ShardedJournal) Overflowed() bool { return sj.overflowed }

// Overflows returns how many times the group has overflowed.
func (sj *ShardedJournal) Overflows() int64 { return sj.overflows }

// SetCapacityPerShard declares every shard's capacity at runtime (0 =
// unlimited, as a group starts); shards created by later reshards inherit
// it. If any shard's backlog already exceeds the new bound the whole group
// fails closed immediately — same all-or-none rule as an append-time overflow.
func (sj *ShardedJournal) SetCapacityPerShard(n int) {
	sj.capacityPerShard = n
	if n <= 0 || sj.overflowed {
		return
	}
	for _, j := range sj.shards {
		if j.PendingBytes() > n {
			sj.overflow()
			return
		}
	}
}

// ClearOverflow re-enables journaling on every shard after a resync has
// reconciled the target (see replication.Group.Resync).
func (sj *ShardedJournal) ClearOverflow() { sj.setOverflowed(false) }

// overflow fails the whole group closed — journaling stops on every shard
// and every member starts change tracking, so a later resync can copy
// exactly the delta — even if only one shard hit its capacity.
func (sj *ShardedJournal) overflow() {
	sj.overflows++
	sj.setOverflowed(true)
}

func (sj *ShardedJournal) setOverflowed(on bool) {
	sj.overflowed = on
	for _, id := range sj.members {
		if v, ok := sj.array.volumes[id]; ok {
			if on {
				v.StartChangeTracking()
			} else {
				v.StopChangeTracking()
			}
		}
	}
}

// ReshardStats describes one shard-set transition.
type ReshardStats struct {
	// BarrierEpoch is the group epoch sealed as the migration barrier:
	// every record acked before the reshard carries an epoch <= it, every
	// later ack a greater one. Zero for a no-op (unchanged count).
	BarrierEpoch int64
	// From and To are the shard counts before and after.
	From, To int
	// MovedVolumes counts members whose stable-hash placement changed.
	MovedVolumes int
	// MovedRecords counts pending records migrated onto their volume's new
	// shard.
	MovedRecords int
}

// Reshard transitions the group to newCount shard journals in one atomic
// (zero virtual time) step — the storage half of a live reshard:
//
//   - the open epoch is sealed as the migration barrier, so the old and the
//     new placement are separated by an exact cross-volume cut;
//   - volumes are re-placed by the same stable hash over the new count, and
//     every pending (undrained) record is pushed, in GlobalSeq order — the
//     array-wide ack order — onto its volume's shard, so every shard's
//     backlog stays epoch-monotone for the drain's barrier math; only
//     members whose assignment changes count as moved;
//   - a grow creates the added shard journals (inheriting the group's
//     per-shard capacity); a shrink drops the shards from newCount on.
//     Every volume of a dropped shard moves, so the dropped journals are
//     empty and stay so: only a retiring drain lane still holds one.
//
// A moved volume with pending records wakes its new shard's NotEmpty, the
// members taken in attach order: a parked lane's wake follows that order.
//
// Resharding to the current count is a structural no-op: no epoch is
// sealed, nothing migrates, no counter moves. An overflowed group refuses
// to reshard — resync first, a suspended pair has no live drain to migrate
// under.
func (sj *ShardedJournal) Reshard(newCount int) (ReshardStats, error) {
	cur := len(sj.shards)
	stats := ReshardStats{From: cur, To: newCount}
	if newCount < 1 {
		return stats, fmt.Errorf("storage: sharded journal %s: reshard to %d shards", sj.id, newCount)
	}
	if newCount == cur {
		return stats, nil
	}
	if sj.overflowed {
		return stats, fmt.Errorf("storage: sharded journal %s: cannot reshard while overflowed (resync first)", sj.id)
	}
	var recs []Record
	held := make(map[VolumeID]int) // pending records per volume
	for _, j := range sj.shards {
		for r := range j.pending.all() {
			recs = append(recs, r)
			held[r.Volume]++
		}
	}
	if sj.capacityPerShard > 0 {
		// Sized shards model finite journal regions: a migration that would
		// land more backlog on a destination than its region holds is
		// refused BEFORE any side effects — the fail-closed overflow
		// invariant must not be bypassable by re-placement. The caller
		// (controller backoff) retries once the drain has made room.
		dest := make([]int, newCount)
		for v, n := range held {
			dest[ShardFor(v, newCount)] += n * sj.shards[0].RecordBytes()
		}
		for k, b := range dest {
			if b > sj.capacityPerShard {
				return stats, fmt.Errorf("storage: sharded journal %s: reshard to %d would put %dB on shard %d (capacity %dB); drain first",
					sj.id, newCount, b, k, sj.capacityPerShard)
			}
		}
	}
	stats.BarrierEpoch = sj.SealEpoch()
	// A fresh slice, never an in-place append or truncation: Shards() hands
	// the old one out.
	shards := make([]*Journal, max(cur, newCount))
	copy(shards, sj.shards)
	for k := range shards {
		if k >= cur {
			shards[k] = newJournal(sj, shardJournalID(sj.id, k))
		}
		shards[k].pending = backlog{}
	}
	for _, v := range sj.members {
		vol, to := sj.array.volumes[v], shards[ShardFor(v, newCount)]
		if vol.journal == to {
			continue
		}
		vol.journal = to
		stats.MovedVolumes++
		stats.MovedRecords += held[v]
		if held[v] > 0 {
			to.notEmpty.Trigger()
		}
	}
	slices.SortFunc(recs, func(x, y Record) int { return cmp.Compare(x.GlobalSeq, y.GlobalSeq) })
	for _, r := range recs {
		sj.array.volumes[r.Volume].journal.pending.push(r)
	}
	sj.shards = shards[:newCount:newCount]
	sj.reshards++
	sj.movedVolumes += int64(stats.MovedVolumes)
	sj.movedRecords += int64(stats.MovedRecords)
	return stats, nil
}

// Reshards returns the lifetime count of shard-set transitions.
func (sj *ShardedJournal) Reshards() int64 { return sj.reshards }

// MovedVolumes returns the lifetime count of migrated member placements.
func (sj *ShardedJournal) MovedVolumes() int64 { return sj.movedVolumes }

// MovedRecords returns the lifetime count of migrated pending records.
func (sj *ShardedJournal) MovedRecords() int64 { return sj.movedRecords }

func (sj *ShardedJournal) String() string {
	return fmt.Sprintf("ShardedJournal(%s){shards=%d members=%d pending=%d epoch=%d}",
		sj.id, len(sj.shards), len(sj.members), sj.Pending(), sj.epoch)
}
