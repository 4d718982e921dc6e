package storage

import (
	"testing"
	"time"
)

// deepJournal returns a one-shard journal and a function that appends its
// next n records, GlobalSeq 1, 2, … in order, each with its own Data.
func deepJournal(t *testing.T) (*Journal, func(n int)) {
	t.Helper()
	_, _, sj := shardedFixture(t, 1, 1, 0)
	j, vol := sj.Shards()[0], sj.Members()[0]
	var seq int64
	return j, func(n int) {
		for range n {
			seq++
			j.append(vol, seq%256, []byte{byte(seq)}, seq, time.Duration(seq))
		}
	}
}

// A backlog is one FIFO in GlobalSeq order however its records are spread
// over segments: takes whose max ends inside a segment, exactly at its end
// and across several, interleaved with appends, return every record once, in
// order, and OldestPendingAck always names the next one.
func TestBacklogKeepsFIFOAcrossSegments(t *testing.T) {
	j, add := deepJournal(t)
	var next, appended int64 = 1, 0
	take := func(max int) {
		t.Helper()
		want := min(max, j.Pending())
		if max <= 0 {
			want = j.Pending()
		}
		got := j.TryTakeInto(nil, max)
		if len(got) != want {
			t.Fatalf("took %d records with max %d, want %d", len(got), max, want)
		}
		for _, r := range got {
			if r.GlobalSeq != next || r.Data[0] != byte(next) {
				t.Fatalf("took GlobalSeq %d, want %d", r.GlobalSeq, next)
			}
			next++
		}
		if at, ok := j.OldestPendingAck(); ok != (j.Pending() > 0) || ok && at != time.Duration(next) {
			t.Fatalf("oldest pending ack %v (%v), want %v", at, ok, time.Duration(next))
		}
		if j.Pending() != int(appended-next+1) {
			t.Fatalf("pending %d, want %d", j.Pending(), appended-next+1)
		}
	}
	grow := func(n int) { add(n); appended += int64(n) }

	grow(3*segRecords + 17)
	for _, max := range []int{1, segRecords - 1, 2, segRecords + 1, 2 * segRecords} {
		take(max)
		grow(max / 2)
	}
	take(0)
	if j.TryTakeInto(nil, 1) != nil || j.Pending() != 0 {
		t.Fatal("a drained backlog still yields records")
	}
	grow(5) // the shallow slice again, after a deep spell
	take(segRecords)
}

// The retention regression the ring guards against, for the journal: every
// slot of a drained deep backlog — head, tail segments and the spare kept for
// reuse — is cleared, so no drained record's Data stays reachable.
func TestDrainedBacklogHoldsNoReferences(t *testing.T) {
	j, add := deepJournal(t)
	add(4*segRecords + 9)
	for j.TryTakeInto(nil, 100) != nil {
		add(7) // refills the tail while the head drains
		if j.Pending() < 50 {
			break
		}
	}
	for j.TryTakeInto(nil, 0) != nil {
	}
	b := &j.pending
	segs := append([][]Record{b.head, b.spare}, b.tail...)
	if len(b.tail) != 0 || b.n != 0 {
		t.Fatalf("drained backlog keeps %d tail segments, %d records", len(b.tail), b.n)
	}
	for k, seg := range segs {
		for i, r := range seg[:cap(seg)] {
			if r.Data != nil || r.Volume != "" || r.GlobalSeq != 0 {
				t.Fatalf("segment %d slot %d of a drained backlog holds %+v", k, i, r)
			}
		}
	}
}
