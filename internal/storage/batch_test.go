package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// batch runs one chargeBatch of n operations of lat on a queue of the given
// capacity, `busy` of whose slots other requests hold throughout, and returns
// the width it ran at (slots it held mid-way through its first round) and how
// long it took.
func batch(t *testing.T, capacity, busy, n int, lat time.Duration) (width int, span time.Duration) {
	t.Helper()
	env := sim.NewEnv(1)
	q := env.NewResource(capacity)
	for i := 0; i < busy; i++ {
		env.Process("holder", func(p *sim.Proc) {
			q.Acquire(p)
			p.Sleep(time.Hour)
			q.Release()
		})
	}
	env.Process("batch", func(p *sim.Proc) {
		chargeBatch(p, q, n, lat, false)
		span = p.Now()
	})
	env.Process("observer", func(p *sim.Proc) {
		p.Sleep(lat / 2)
		width = q.InUse() - busy
	})
	env.Run(0)
	if q.InUse() != 0 {
		t.Fatalf("n=%d busy=%d: %d slots still held after the batch", n, busy, q.InUse())
	}
	return width, span
}

// The one rule for a multi-block request: as wide as the slots free when it
// starts, ceil(n/width) rounds, narrowed to the least width that finishes in
// that many — so the slot-time it holds is n × lat plus at most one partial
// round, however much span it saved.
func TestChargeBatchWidthAndRounds(t *testing.T) {
	const lat = 100 * time.Microsecond
	for _, c := range []struct {
		capacity, busy, n int
		width, rounds     int
	}{
		// Idle 8-slot controller.
		{8, 0, 1, 1, 1},
		{8, 0, 6, 6, 1},
		{8, 0, 8, 8, 1},
		{8, 0, 9, 5, 2}, // two rounds either way: 5 abreast, not 8
		{8, 0, 945, 8, 119},
		// k slots busy: no wider than the 8-k that are free.
		{8, 3, 40, 5, 8},
		{8, 3, 16, 4, 4}, // 5 free, 4 rounds either way
		{8, 7, 40, 1, 40},
		// A queue of one (an isolated volume's): n × lat, as it always was.
		{1, 0, 1, 1, 1},
		{1, 0, 6, 1, 6},
		{1, 0, 256, 1, 256},
	} {
		width, span := batch(t, c.capacity, c.busy, c.n, lat)
		if width != c.width || span != time.Duration(c.rounds)*lat {
			t.Errorf("n=%d on %d slots, %d busy: width %d for %v, want width %d for %d rounds of %v",
				c.n, c.capacity, c.busy, width, span, c.width, c.rounds, lat)
		}
		if free := c.capacity - c.busy; width > free {
			t.Errorf("n=%d: width %d with only %d slots free", c.n, width, free)
		}
		slotTime, work := time.Duration(width)*span, time.Duration(c.n)*lat
		if slotTime < work || slotTime >= work+time.Duration(width)*lat {
			t.Errorf("n=%d: held %v of slot-time for %v of work: not conserved to within one round", c.n, slotTime, work)
		}
	}
	if width, span := batch(t, 8, 0, 0, lat); width != 0 || span != 0 {
		t.Errorf("an empty request held %d slots for %v", width, span)
	}
}

// A batch queues like any I/O and takes free slots only: behind a waiter it is
// served second, and when the slot it is handed is the only one free it runs
// one abreast — it never waits for width.
func TestChargeBatchKeepsFIFO(t *testing.T) {
	const lat = 100 * time.Microsecond
	env := sim.NewEnv(1)
	q := env.NewResource(8)
	for i := 0; i < 8; i++ {
		hold := time.Duration(i+1) * time.Millisecond // slots come free one at a time
		env.Process("holder", func(p *sim.Proc) {
			q.Acquire(p)
			p.Sleep(hold)
			q.Release()
		})
	}
	var waiterAt, batchDone time.Duration
	env.Process("waiter", func(p *sim.Proc) {
		q.Acquire(p)
		waiterAt = p.Now()
		p.Sleep(10 * time.Millisecond)
		q.Release()
	})
	env.Process("batch", func(p *sim.Proc) {
		chargeBatch(p, q, 4, lat, false)
		batchDone = p.Now()
	})
	env.Run(0)
	if waiterAt != time.Millisecond {
		t.Fatalf("the waiter queued ahead of the batch was served at %v, want the first free slot (1ms)", waiterAt)
	}
	if want := 2*time.Millisecond + 4*lat; batchDone != want {
		t.Fatalf("a 4-block batch handed the only free slot finished at %v, want 2ms + 4 rounds of %v", batchDone, lat)
	}
}

// A range keeps its slot to the end; a vector with someone queued behind it
// runs one round, lets them in and finishes from the back of the line — and
// with nobody waiting by then, finishes in one step.
func TestVectorYieldsToWaitersAndARangeDoesNot(t *testing.T) {
	const lat = 100 * time.Microsecond
	for _, c := range []struct {
		yields             bool
		waiterAt, batchEnd time.Duration
	}{
		{false, time.Millisecond + 3*lat, time.Millisecond + 3*lat},
		{true, time.Millisecond + lat, time.Millisecond + 4*lat},
	} {
		env := sim.NewEnv(1)
		q := env.NewResource(1)
		var waiterAt, batchEnd time.Duration
		env.Process("holder", func(p *sim.Proc) { chargeBatch(p, q, 1, time.Millisecond, false) })
		env.Process("batch", func(p *sim.Proc) {
			chargeBatch(p, q, 3, lat, c.yields)
			batchEnd = p.Now()
		})
		env.Process("waiter", func(p *sim.Proc) {
			q.Acquire(p)
			waiterAt = p.Now()
			p.Sleep(lat)
			q.Release()
		})
		env.Run(0)
		if waiterAt != c.waiterAt || batchEnd != c.batchEnd {
			t.Errorf("yields=%v: waiter served at %v, 3-block batch done at %v; want %v and %v",
				c.yields, waiterAt, batchEnd, c.waiterAt, c.batchEnd)
		}
	}
}

// A vectored request is validated whole before it costs or changes anything:
// one bad element and no time has passed, nothing was counted, filled,
// stored or journaled.
func TestVectoredRequestsValidateBeforeCharging(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 8)
	ro, _ := a.CreateVolume("ro", 8)
	ro.SetReadOnly(true)
	j := journalOn(t, a, "j", "v")
	snap, _ := a.CreateSnapshot("s", "v")
	env.Process("driver", func(p *sim.Proc) {
		sentinel := []byte{1}
		untouched := func(what string, err, want error, ios []BlockIO) {
			t.Helper()
			if !errors.Is(err, want) {
				t.Errorf("%s: error %v, want %v", what, err, want)
			}
			if p.Now() != 0 || a.ReadOps() != 0 || a.WriteOps() != 0 || j.Pending() != 0 {
				t.Errorf("%s: charged %v, %d reads, %d writes, %d records", what, p.Now(), a.ReadOps(), a.WriteOps(), j.Pending())
			}
			for _, io := range ios {
				if v.Peek(io.Block) != nil || ro.Peek(io.Block) != nil {
					t.Errorf("%s: block %d was stored", what, io.Block)
				}
			}
		}
		for _, bad := range []int64{-1, 8} {
			ios := []BlockIO{{Block: 0, Data: sentinel}, {Block: bad, Data: sentinel}}
			untouched("Volume.ReadBlocks", v.ReadBlocks(p, ios), ErrOutOfRange, nil)
			untouched("Snapshot.ReadBlocks", snap.ReadBlocks(p, ios), ErrOutOfRange, nil)
			if &ios[0].Data[0] != &sentinel[0] {
				t.Errorf("a refused ReadBlocks filled its first element")
			}
		}
		good := func() []BlockIO { return []BlockIO{{Block: 1, Data: block(a, 1)}, {Block: 2, Data: block(a, 2)}} }
		ios := append(good(), BlockIO{Block: 8, Data: block(a, 3)})
		untouched("WriteOwnedBlocks past the end", v.WriteOwnedBlocks(p, ios), ErrOutOfRange, ios)
		for _, n := range []int{0, a.Config().BlockSize + 1} {
			ios = append(good(), BlockIO{Block: 3, Data: make([]byte, n)})
			untouched(fmt.Sprintf("WriteOwnedBlocks of a %d-byte block", n), v.WriteOwnedBlocks(p, ios), ErrBadBlockSize, ios)
		}
		ios = good()
		untouched("WriteOwnedBlocks to a read-only volume", ro.WriteOwnedBlocks(p, ios), ErrReadOnly, ios)
		ios = append(good(), BlockIO{Block: 3, Data: []byte{1, 2, 3}}) // a prefix is a valid block
		if err := v.WriteOwnedBlocks(p, ios); err != nil || len(v.Peek(3)) != 3 {
			t.Errorf("WriteOwnedBlocks with a prefix block: %v, stored %d bytes", err, len(v.Peek(3)))
		}
	})
	env.Run(0)
}

// A gathered write on a journaled volume is acked in slice order at the
// instant it returns: one journal record per block, in the vector's order
// whatever the block numbers, GlobalSeq ascending with no gap.
func TestGatheredWriteJournalsInSliceOrder(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 64)
	j := journalOn(t, a, "j", "v")
	order := []int64{40, 3, 17, 5, 63, 0, 9, 21, 2, 30} // 10 blocks: 2 rounds, 5 abreast
	env.Process("driver", func(p *sim.Proc) {
		first, _ := v.Write(p, 1, block(a, 0xFF))
		t0 := p.Now()
		ios := make([]BlockIO, len(order))
		for i, b := range order {
			ios[i] = BlockIO{Block: b, Data: block(a, byte(i))}
		}
		if err := v.WriteOwnedBlocks(p, ios); err != nil {
			t.Fatal(err)
		}
		if got, want := p.Now()-t0, 2*(a.Config().WriteLatency+a.Config().JournalLatency); got != want {
			t.Errorf("a 10-block journaled gather took %v, want two rounds: %v", got, want)
		}
		recs := j.PendingRecords()[1:]
		if len(recs) != len(order) {
			t.Fatalf("%d records for %d blocks", len(recs), len(order))
		}
		for i, r := range recs {
			if int64(r.Block) != order[i] || r.GlobalSeq != first.GlobalSeq+1+int64(i) || r.AckedAt != p.Now() {
				t.Errorf("record %d: block %d seq %d acked %v; want block %d seq %d acked %v",
					i, r.Block, r.GlobalSeq, r.AckedAt, order[i], first.GlobalSeq+1+int64(i), p.Now())
			}
			if &r.Data[0] != &ios[i].Data[0] || &v.Peek(int64(r.Block))[0] != &ios[i].Data[0] {
				t.Errorf("record %d: the handed-over slice was copied", i)
			}
		}
		if v.Writes() != int64(1+len(order)) {
			t.Errorf("%d writes counted, want %d", v.Writes(), 1+len(order))
		}
	})
	env.Run(0)
}
