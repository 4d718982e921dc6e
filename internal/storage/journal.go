package storage

import (
	"fmt"
	"iter"
	"slices"
	"time"

	"repro/internal/sim"
)

// Record is one update log entry in a journal volume: which block of which
// volume was written, the data, and its write's place in the array-wide ack
// order (GlobalSeq, the number the write was acked with). A shard appends in
// ack order, so its records ascend by GlobalSeq, and a group's shards merged
// by GlobalSeq give the group's write order. Every record also carries the
// group Epoch open at ack time — the cross-shard ordering barrier the
// multi-lane drain commits on.
type Record struct {
	GlobalSeq int64
	Epoch     int64
	Volume    VolumeID
	Block     int64
	Data      []byte
	AckedAt   time.Duration // main-site ack time, used for RPO measurement
}

const recordHeaderBytes = 64

// Journal is an update-log volume: one shard of a consistency group's
// ShardedJournal. The volumes placed on it share its record order — one
// total order over all their writes, ascending by GlobalSeq, which the
// backup site replays exactly. Its appends are stamped with the group epoch,
// and its capacity and overflow state are the group's: a shard never
// suspends alone.
type Journal struct {
	env      *sim.Env
	group    *ShardedJournal
	id       string
	pending  backlog
	appended int64
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

// append adds a record in ack order and wakes a drain blocked on NotEmpty.
func (j *Journal) append(vol VolumeID, block int64, data []byte, globalSeq int64, now time.Duration) {
	j.pending.push(Record{
		GlobalSeq: globalSeq,
		Epoch:     j.group.epoch,
		Volume:    vol,
		Block:     block,
		Data:      data,
		AckedAt:   now,
	})
	j.appended++
	j.notEmpty.Trigger()
}

// Pending returns the number of records awaiting drain (the backlog).
func (j *Journal) Pending() int { return j.pending.n }

// PendingBytes returns the wire size of the backlog.
func (j *Journal) PendingBytes() int { return j.pending.n * j.RecordBytes() }

// OldestPendingAck returns the ack time of the oldest undrained record and
// whether one exists; the replication engine derives RPO from it.
func (j *Journal) OldestPendingAck() (time.Duration, bool) {
	if j.pending.n == 0 {
		return 0, false
	}
	return j.pending.front().AckedAt, true
}

// OldestPendingEpoch returns the epoch of the oldest undrained record and
// whether one exists. Epochs in a journal are non-decreasing, so the
// multi-lane drain reads this as "every record of epochs < e is drained".
func (j *Journal) OldestPendingEpoch() (int64, bool) {
	if j.pending.n == 0 {
		return 0, false
	}
	return j.pending.front().Epoch, true
}

// PendingRecords returns a copy of the undrained records in sequence
// order. Failback reads them to learn which source blocks diverged (they
// carry updates the backup never received).
func (j *Journal) PendingRecords() []Record { return j.pending.records() }

// Appended returns the lifetime count of records written to the journal.
func (j *Journal) Appended() int64 { return j.appended }

// NotEmpty returns an event that triggers when the journal next becomes
// non-empty (or immediately if it already is). Replication drains use it
// together with sim.Proc.WaitAny to block on "records or stop". Fetch it
// anew for every wait: the journal re-arms the event in place.
func (j *Journal) NotEmpty() *sim.Event {
	if j.pending.n > 0 {
		j.notEmpty.Trigger()
		return j.notEmpty
	}
	j.notEmpty = j.notEmpty.Renew()
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
	if j.pending.n == 0 {
		return nil
	}
	if max <= 0 || max > j.pending.n {
		max = j.pending.n
	}
	return j.pending.popInto(buf[:0], max)
}

func (j *Journal) String() string {
	return fmt.Sprintf("Journal(%s){pending=%d}", j.id, j.pending.n)
}

// segRecords is the length of the fixed segments a deep backlog chains.
const segRecords = 256

// backlog is a journal's pending records: a FIFO in GlobalSeq order that never
// shifts a record. While shallow it is one slice, head, grown by append and
// reset when it drains. Past segRecords records it chains fixed segments of
// segRecords behind head; a drained segment is kept as spare for the next one
// the tail needs, so a deep backlog in steady state allocates nothing. Every
// popped slot is cleared: a drained record's Data is not held.
type backlog struct {
	head  []Record // the oldest segment; head[off:] are pending
	off   int
	tail  [][]Record // later segments, oldest first, each filled to its cap
	spare []Record   // a drained segment, cleared, or nil
	n     int        // records pending
}

// front returns the oldest pending record; the backlog must not be empty.
func (b *backlog) front() *Record { return &b.head[b.off] }

// push appends r after every pending record.
func (b *backlog) push(r Record) {
	b.n++
	if len(b.tail) == 0 && len(b.head) < segRecords {
		b.head = append(b.head, r)
		return
	}
	if k := len(b.tail) - 1; k >= 0 && len(b.tail[k]) < cap(b.tail[k]) {
		b.tail[k] = append(b.tail[k], r)
		return
	}
	seg := b.spare
	if b.spare = nil; seg == nil {
		seg = make([]Record, 0, segRecords)
	}
	b.tail = append(b.tail, append(seg, r))
}

// popInto appends the k oldest records to buf, k at most n, clears their
// slots and returns buf.
func (b *backlog) popInto(buf []Record, k int) []Record {
	for k > 0 {
		seg := b.head[b.off:min(b.off+k, len(b.head))]
		buf = append(buf, seg...)
		clear(seg)
		b.off += len(seg)
		b.n -= len(seg)
		k -= len(seg)
		if b.off < len(b.head) {
			break
		}
		// head is drained: reuse it as the shallow slice, or make it the
		// spare and the oldest tail segment the head.
		b.off = 0
		if len(b.tail) == 0 {
			b.head = b.head[:0]
			break
		}
		if cap(b.head) >= segRecords {
			b.spare = b.head[:0:segRecords]
		}
		b.head = b.tail[0]
		b.tail = slices.Delete(b.tail, 0, 1)
	}
	return buf
}

// all yields the pending records, oldest first.
func (b *backlog) all() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		for _, r := range b.head[b.off:] {
			if !yield(r) {
				return
			}
		}
		for _, seg := range b.tail {
			for _, r := range seg {
				if !yield(r) {
					return
				}
			}
		}
	}
}

// records returns a copy of the pending records, oldest first.
func (b *backlog) records() []Record {
	return slices.AppendSeq(make([]Record, 0, b.n), b.all())
}
