package storage

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Record is one update log entry in a journal volume: which block of which
// volume was written, the data, and where the write fell in the journal's
// ack order (Seq) and the array-wide ack order (GlobalSeq). Every record
// also carries the group Epoch open at ack time — the cross-shard ordering
// barrier the multi-lane drain commits on.
type Record struct {
	Seq       int64
	GlobalSeq int64
	Epoch     int64
	Volume    VolumeID
	Block     int64
	Data      []byte
	AckedAt   time.Duration // main-site ack time, used for RPO measurement
}

const recordHeaderBytes = 64

// Journal is an update-log volume: one shard of a consistency group's
// ShardedJournal. The volumes placed on it share its Seq numbers — one total
// order over all their writes, which the backup site replays exactly. Its
// appends are stamped with the group epoch, and its capacity and overflow
// state are the group's: a shard never suspends alone.
type Journal struct {
	env      *sim.Env
	group    *ShardedJournal
	id       string
	pending  []Record
	nextSeq  int64
	appended int64
	drained  int64
	notEmpty *sim.Event
}

func newJournal(sj *ShardedJournal, id string) *Journal {
	return &Journal{env: sj.env, group: sj, id: id, notEmpty: sj.env.NewEvent()}
}

// ID returns the journal identifier.
func (j *Journal) ID() string { return j.id }

// Members returns the group's volumes placed on this shard, in attach order.
func (j *Journal) Members() []VolumeID {
	var out []VolumeID
	for _, id := range j.group.members {
		if v, ok := j.group.array.volumes[id]; ok && v.journal == j {
			out = append(out, id)
		}
	}
	return out
}

// Overflowed reports whether the group has overflowed (pair suspended).
func (j *Journal) Overflowed() bool { return j.group.overflowed }

// CapacityBytes returns the shard's capacity: the group's per-shard bound
// (0 = unlimited).
func (j *Journal) CapacityBytes() int { return j.group.capacityPerShard }

// RecordBytes returns the wire size of one record: a whole block plus a fixed
// header, whatever prefix of the block its Data holds. Backlog bytes, the
// capacity check and the replication engine's link charges all count it.
func (j *Journal) RecordBytes() int { return j.group.array.cfg.BlockSize + recordHeaderBytes }

// append adds a record in ack order, wakes a drain blocked on NotEmpty, and
// returns the record's sequence number.
func (j *Journal) append(vol VolumeID, block int64, data []byte, globalSeq int64, now time.Duration) int64 {
	j.nextSeq++
	j.pending = append(j.pending, Record{
		Seq:       j.nextSeq,
		GlobalSeq: globalSeq,
		Epoch:     j.group.epoch,
		Volume:    vol,
		Block:     block,
		Data:      data,
		AckedAt:   now,
	})
	j.appended++
	j.notEmpty.Trigger()
	return j.nextSeq
}

// nextAckSeq stamps one member write in the group-wide scoped ack order
// (Config.IsolatedVolumes) — cross-shard merges rely on one ascending order
// per group.
func (j *Journal) nextAckSeq() int64 {
	j.group.ackSeq++
	return j.group.ackSeq
}

// Pending returns the number of records awaiting drain (the backlog).
func (j *Journal) Pending() int { return len(j.pending) }

// PendingBytes returns the wire size of the backlog.
func (j *Journal) PendingBytes() int { return len(j.pending) * j.RecordBytes() }

// OldestPendingAck returns the ack time of the oldest undrained record and
// whether one exists; the replication engine derives RPO from it.
func (j *Journal) OldestPendingAck() (time.Duration, bool) {
	if len(j.pending) == 0 {
		return 0, false
	}
	return j.pending[0].AckedAt, true
}

// OldestPendingEpoch returns the epoch of the oldest undrained record and
// whether one exists. Epochs in a journal are non-decreasing, so the
// multi-lane drain reads this as "every record of epochs < e is drained".
func (j *Journal) OldestPendingEpoch() (int64, bool) {
	if len(j.pending) == 0 {
		return 0, false
	}
	return j.pending[0].Epoch, true
}

// PendingRecords returns a copy of the undrained records in sequence
// order. Failback reads them to learn which source blocks diverged (they
// carry updates the backup never received).
func (j *Journal) PendingRecords() []Record {
	out := make([]Record, len(j.pending))
	copy(out, j.pending)
	return out
}

// Appended returns the lifetime count of records written to the journal.
func (j *Journal) Appended() int64 { return j.appended }

// Drained returns the lifetime count of records taken off the journal.
func (j *Journal) Drained() int64 { return j.drained }

// NotEmpty returns an event that triggers when the journal next becomes
// non-empty (or immediately if it already is). Replication drains use it
// together with sim.Proc.WaitAny to block on "records or stop".
func (j *Journal) NotEmpty() *sim.Event {
	if len(j.pending) > 0 {
		if !j.notEmpty.Triggered() {
			j.notEmpty.Trigger()
		}
		return j.notEmpty
	}
	if j.notEmpty.Triggered() {
		j.notEmpty = j.env.NewEvent()
	}
	return j.notEmpty
}

// TryTakeInto removes and returns up to max pending records (all of them when
// max <= 0) in sequence order without blocking, reusing buf's backing storage
// for the returned batch; it returns nil when the journal is empty. The
// replication drain calls it in a loop with one scratch buffer so
// steady-state draining allocates nothing; callers must be done with the
// previous batch before taking the next one into the same buffer. To block
// until there is something to take, wait on NotEmpty first.
func (j *Journal) TryTakeInto(buf []Record, max int) []Record {
	if len(j.pending) == 0 {
		return nil
	}
	if max <= 0 || max > len(j.pending) {
		max = len(j.pending)
	}
	buf = append(buf[:0], j.pending[:max]...)
	rest := len(j.pending) - max
	copy(j.pending, j.pending[max:])
	for i := rest; i < len(j.pending); i++ {
		j.pending[i] = Record{}
	}
	j.pending = j.pending[:rest]
	j.drained += int64(max)
	return buf
}

// pendingBytesOf returns the wire size of one volume's share of the
// backlog (the reshard capacity check sums these per destination shard).
func (j *Journal) pendingBytesOf(vol VolumeID) int {
	var n int
	for _, r := range j.pending {
		if r.Volume == vol {
			n++
		}
	}
	return n * j.RecordBytes()
}

// takeVolume extracts every pending record of one volume, preserving the
// relative order of both the extracted and the remaining records. The
// sharded-journal reshard uses it to migrate a re-placed volume's backlog
// onto its new shard; counters are untouched (the records were appended
// once and will still be drained once, just elsewhere).
func (j *Journal) takeVolume(vol VolumeID) []Record {
	var out []Record
	kept := j.pending[:0]
	for _, r := range j.pending {
		if r.Volume == vol {
			out = append(out, r)
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(j.pending); i++ {
		j.pending[i] = Record{}
	}
	j.pending = kept
	return out
}

// mergeIn splices records into the pending backlog by GlobalSeq — the
// array-wide ack order. Both the backlog and recs are GlobalSeq-ascending
// (append order is ack order), so the merge keeps the result ascending,
// which in turn keeps epochs non-decreasing: the invariant
// OldestPendingEpoch readers (the multi-lane drain's barrier math) rely on.
func (j *Journal) mergeIn(recs []Record) {
	if len(recs) == 0 {
		return
	}
	merged := make([]Record, 0, len(j.pending)+len(recs))
	a, b := j.pending, recs
	for len(a) > 0 && len(b) > 0 {
		if a[0].GlobalSeq <= b[0].GlobalSeq {
			merged = append(merged, a[0])
			a = a[1:]
		} else {
			merged = append(merged, b[0])
			b = b[1:]
		}
	}
	merged = append(merged, a...)
	merged = append(merged, b...)
	j.pending = merged
	j.notEmpty.Trigger()
}

func (j *Journal) String() string {
	return fmt.Sprintf("Journal(%s){pending=%d}", j.id, len(j.pending))
}
