package db

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// fixture builds a fresh array + volume and runs fn inside one process.
func withVolume(t *testing.T, sizeBlocks int64, fn func(p *sim.Proc, vol *storage.Volume)) {
	t.Helper()
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, err := a.CreateVolume("dbvol", sizeBlocks)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	env.Process("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				failed = true
				t.Errorf("panic in sim process: %v", r)
			}
		}()
		fn(p, vol)
	})
	env.Run(0)
	if failed {
		t.FailNow()
	}
}

func TestOpenFormatsFreshVolume(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "sales", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if d.RecoveredTxns() != 0 || d.RecoveryTime() != 0 {
			t.Fatalf("fresh open ran recovery: %d txns %v", d.RecoveredTxns(), d.RecoveryTime())
		}
		if _, found, err := d.Get(p, 42); err != nil || found {
			t.Fatalf("fresh db has data: found=%v err=%v", found, err)
		}
	})
}

func TestOpenRejectsTinyVolume(t *testing.T) {
	withVolume(t, 10, func(p *sim.Proc, vol *storage.Volume) {
		if _, err := Open(p, "x", vol, Config{WALBlocks: 64}); !errors.Is(err, ErrVolumeTooSmall) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestCommitAndGet(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		if err := tx.Put(1, []byte("order-1")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(2, []byte("order-2")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		v, found, err := d.Get(p, 1)
		if err != nil || !found || string(v) != "order-1" {
			t.Fatalf("get: %q %v %v", v, found, err)
		}
		if d.Commits() != 1 || !d.HasCommitted(tx.ID()) {
			t.Fatal("commit bookkeeping wrong")
		}
	})
}

func TestUncommittedInvisible(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		writes := vol.Writes()
		tx := d.Begin()
		tx.Put(7, []byte("pending"))
		if _, found, _ := d.Get(p, 7); found {
			t.Fatal("uncommitted update visible")
		}
		if vol.Writes() != writes {
			t.Fatalf("an uncommitted transaction wrote %d blocks", vol.Writes()-writes)
		}
	})
}

func TestTxnValidation(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		if err := tx.Put(0, []byte("x")); !errors.Is(err, ErrZeroKey) {
			t.Fatalf("zero key: %v", err)
		}
		if err := tx.Put(1, make([]byte, MaxValLen+1)); !errors.Is(err, ErrValTooLarge) {
			t.Fatalf("huge val: %v", err)
		}
		if err := tx.Put(1, make([]byte, MaxValLen)); err != nil {
			t.Fatalf("max val rejected: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); !errors.Is(err, ErrTxnDone) {
			t.Fatalf("double commit: %v", err)
		}
	})
}

func TestUpdateOverwritesInPlace(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		for i := 0; i < 3; i++ {
			tx := d.Begin()
			tx.Put(5, []byte(fmt.Sprintf("v%d", i)))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		v, _, _ := d.Get(p, 5)
		if string(v) != "v2" {
			t.Fatalf("v = %q", v)
		}
		// One key = one slot: scanning sees a single row for key 5.
		n := 0
		d.Scan(p, func(r Row) bool {
			if r.Key == 5 {
				n++
			}
			return true
		})
		if n != 1 {
			t.Fatalf("key 5 occupies %d slots", n)
		}
	})
}

func TestCrashRecoveryReplaysCommitted(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx1 := d.Begin()
		tx1.Put(1, []byte("committed"))
		if err := tx1.Commit(p); err != nil {
			t.Fatal(err)
		}
		tx2 := d.Begin()
		tx2.Put(2, []byte("never-committed"))
		// Crash: drop the DB without checkpoint; tx2 never committed.
		d2, err := Open(p, "sales", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if d2.RecoveredTxns() != 1 {
			t.Fatalf("recovered %d txns, want 1", d2.RecoveredTxns())
		}
		v, found, _ := d2.Get(p, 1)
		if !found || string(v) != "committed" {
			t.Fatalf("lost committed data: %q %v", v, found)
		}
		if _, found, _ := d2.Get(p, 2); found {
			t.Fatal("uncommitted data resurrected")
		}
		if !d2.HasCommitted(tx1.ID()) || d2.HasCommitted(tx2.ID()) {
			t.Fatal("committed-set wrong after recovery")
		}
		if d2.RecoveryTime() <= 0 {
			t.Fatal("recovery consumed no simulated time")
		}
	})
}

// Recovery is the log until it ends, then three requests and a barrier: the
// 2-block log in chunks of 1 and 2 blocks (3 read), the pages the redo touches
// as one scatter read, those pages back as one gather in ascending block
// order — each as wide as the idle 8-slot array — and only then, as a request
// of its own, the superblock that retires the log. On a journaled volume the
// journal shows it: one record per page, ascending, all acked when the gather
// returned; the superblock's record last and later.
func TestRecoveryIsThreeRequestsAndABarrier(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		const pages = 40 // 5 rounds of 8; keys land on consecutive pages, the owned map iterates in any order
		vol := crashedImage(t, p, a, "v", 80, pages)
		sj, err := a.CreateConsistencyGroup("cg", []storage.VolumeID{"v"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		view, err := OpenView(p, "view", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		d, err := Open(p, "recovered", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := a.Config()
		write := cfg.WriteLatency + cfg.JournalLatency
		logRead, pageRead, flush := 2*storage.ReadLatency, pages/8*storage.ReadLatency, pages/8*write+write
		if d.LogReadTime() != logRead || d.PageReadTime() != pageRead || d.FlushTime() != flush {
			t.Errorf("log read %v, page read %v, flush %v; want %v, %v, %v",
				d.LogReadTime(), d.PageReadTime(), d.FlushTime(), logRead, pageRead, flush)
		}
		if live, read := d.LogBlocks(); live != 2 || read != 3 {
			t.Errorf("the log read found %d live blocks in %d read; want 2 in 3", live, read)
		}
		if open := p.Now() - t0; d.RecoveryTime() != logRead+pageRead+flush || open != storage.ReadLatency+d.RecoveryTime() {
			t.Errorf("recovery time %v of a %v open; want the three phases, and the superblock read before them", d.RecoveryTime(), open)
		}
		if view.ReplayTime() != logRead+pageRead || view.LogReadTime() != logRead || view.PageReadTime() != pageRead {
			t.Errorf("the view's replay took %v (log %v, pages %v); want the database's two reads", view.ReplayTime(), view.LogReadTime(), view.PageReadTime())
		}
		recs := sj.Shards()[0].PendingRecords()
		if len(recs) != pages+1 {
			t.Fatalf("the recovery checkpoint journaled %d records, want %d pages and the superblock", len(recs), pages)
		}
		sb, gathered := recs[pages], p.Now()-write
		for i, r := range recs[:pages] {
			if r.Block != d.dataBase+1+int64(i) || r.GlobalSeq != recs[0].GlobalSeq+int64(i) || r.AckedAt != gathered {
				t.Fatalf("record %d: block %d seq %d acked %v; want block %d seq %d acked %v",
					i, r.Block, r.GlobalSeq, r.AckedAt, d.dataBase+1+int64(i), recs[0].GlobalSeq+int64(i), gathered)
			}
		}
		if sb.Block != 0 || sb.GlobalSeq != recs[pages-1].GlobalSeq+1 || sb.AckedAt != p.Now() {
			t.Fatalf("last record: block %d seq %d acked %v; want the superblock, one write after the gather returned at %v",
				sb.Block, sb.GlobalSeq, sb.AckedAt, gathered)
		}
	})
}

func TestRecoveryAfterCheckpointAndMoreCommits(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(1, []byte("before-ckpt"))
		tx.Commit(p)
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		tx2 := d.Begin()
		tx2.Put(2, []byte("after-ckpt"))
		tx2.Commit(p)
		// Crash and recover: page data from the checkpoint + WAL delta.
		d2, err := Open(p, "sales", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		v1, f1, _ := d2.Get(p, 1)
		v2, f2, _ := d2.Get(p, 2)
		if !f1 || string(v1) != "before-ckpt" {
			t.Fatalf("lost checkpointed data: %q %v", v1, f1)
		}
		if !f2 || string(v2) != "after-ckpt" {
			t.Fatalf("lost WAL delta: %q %v", v2, f2)
		}
		// Only the post-checkpoint txn is replayed from WAL.
		if d2.RecoveredTxns() != 1 {
			t.Fatalf("recovered %d, want 1", d2.RecoveredTxns())
		}
	})
}

func TestRepeatedCrashRecoveryIdempotent(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		for i := uint64(1); i <= 5; i++ {
			tx := d.Begin()
			tx.Put(i, []byte{byte(i)})
			tx.Commit(p)
		}
		for round := 0; round < 3; round++ {
			d2, err := Open(p, "sales", vol, Config{})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for i := uint64(1); i <= 5; i++ {
				v, found, _ := d2.Get(p, i)
				if !found || v[0] != byte(i) {
					t.Fatalf("round %d key %d: %v %v", round, i, v, found)
				}
			}
		}
	})
}

func TestWALWrapTriggersCheckpoint(t *testing.T) {
	withVolume(t, 300, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{WALBlocks: 4})
		// Each commit logs ~190 bytes; a 4-block WAL (~16KB) fills after
		// enough commits and must checkpoint automatically.
		for i := uint64(1); i <= 400; i++ {
			tx := d.Begin()
			tx.Put(i%50+1, bytes.Repeat([]byte{byte(i)}, 100))
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if d.Checkpoints() == 0 {
			t.Fatal("WAL never checkpointed despite wrapping")
		}
		// All data still correct after a crash.
		d2, err := Open(p, "sales", vol, Config{WALBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(351); i <= 400; i++ {
			key := i%50 + 1
			v, found, _ := d2.Get(p, key)
			if !found || len(v) != 100 {
				t.Fatalf("key %d: found=%v len=%d", key, found, len(v))
			}
		}
	})
}

func TestTxnTooLargeForWAL(t *testing.T) {
	withVolume(t, 300, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{WALBlocks: 1})
		tx := d.Begin()
		for i := uint64(1); i <= 100; i++ {
			tx.Put(i, bytes.Repeat([]byte{1}, 100))
		}
		if err := tx.Commit(p); !errors.Is(err, ErrTxnTooLarge) {
			t.Fatalf("err = %v, want ErrTxnTooLarge", err)
		}
	})
}

func TestPageFullError(t *testing.T) {
	// Volume sized so all keys land on very few pages; overfill one page.
	withVolume(t, 70, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "sales", vol, Config{WALBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		// dataPages = 70-5 = 65; key k hits page k%65. Keys 1, 66, 131, ...
		// all map to page 1. A 4096B page holds 32 slots.
		var commitErr error
		for i := 0; i < 40; i++ {
			tx := d.Begin()
			tx.Put(uint64(1+65*i), []byte("x"))
			if commitErr = tx.Commit(p); commitErr != nil {
				break
			}
		}
		if !errors.Is(commitErr, ErrPageFull) {
			t.Fatalf("err = %v, want ErrPageFull", commitErr)
		}
	})
}

func TestCommitLatencyTracksVolumeWriteLatency(t *testing.T) {
	// The E5 mechanism in miniature: commit latency equals WAL block write
	// latency, so a slower (SDC-like) volume slows commits proportionally.
	latency := func(writeLat time.Duration) time.Duration {
		env := sim.NewEnv(1)
		a := storage.NewArray(env, "arr", storage.Config{WriteLatency: writeLat})
		vol, _ := a.CreateVolume("v", 256)
		var took time.Duration
		env.Process("t", func(p *sim.Proc) {
			d, _ := Open(p, "x", vol, Config{})
			tx := d.Begin()
			tx.Put(1, []byte("v"))
			start := p.Now()
			tx.Commit(p)
			took = p.Now() - start
		})
		env.Run(0)
		return took
	}
	fast, slow := latency(100*time.Microsecond), latency(10*time.Millisecond)
	if slow < 50*fast {
		t.Fatalf("commit latency did not track write latency: fast=%v slow=%v", fast, slow)
	}
}

func TestBeginWithIDCoordinatesAcrossDBs(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.BeginWithID(1000)
		tx.Put(1, []byte("x"))
		tx.Commit(p)
		if !d.HasCommitted(1000) {
			t.Fatal("explicit txid not recorded")
		}
		// Auto IDs continue past explicit ones.
		tx2 := d.Begin()
		if tx2.ID() <= 1000 {
			t.Fatalf("auto ID %d collided with explicit range", tx2.ID())
		}
	})
}

// The committed set is sorted and distinct however IDs reach it: commits whose
// BeginWithID IDs arrive out of order and repeat, a replayed log whose commit
// records do the same, and live commits after the replay. CommittedTxns is a
// copy: a caller that rewrites it changes nothing the database reports.
func TestCommittedSetIsSortedAndDistinct(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		commit := func(d *DB, id uint64) {
			t.Helper()
			tx := d.BeginWithID(id)
			tx.Put(id, []byte{byte(id)})
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string, d *DB, want []uint64) {
			t.Helper()
			if got := d.CommittedTxns(); !slices.Equal(got, want) {
				t.Fatalf("%s: committed %v, want %v", stage, got, want)
			}
			for id := uint64(0); id <= 13; id++ {
				if d.HasCommitted(id) != slices.Contains(want, id) {
					t.Fatalf("%s: HasCommitted(%d) = %v, want %v", stage, id, d.HasCommitted(id), slices.Contains(want, id))
				}
			}
		}
		d, _ := Open(p, "sales", vol, Config{})
		for _, id := range []uint64{5, 2, 9, 2} {
			commit(d, id)
		}
		check("out of order", d, []uint64{2, 5, 9})

		d, err := Open(p, "sales", vol, Config{}) // replays all four commit records
		if err != nil {
			t.Fatal(err)
		}
		if d.RecoveredTxns() != 3 {
			t.Fatalf("replay recovered %d transactions, want the 3 distinct IDs", d.RecoveredTxns())
		}
		check("replayed", d, []uint64{2, 5, 9})
		for _, id := range []uint64{7, 1, 12, 5} {
			commit(d, id)
		}
		want := []uint64{1, 2, 5, 7, 9, 12}
		check("replayed, then live", d, want)

		listing := d.CommittedTxns()
		for i := range listing {
			listing[i] = 3
		}
		check("after the caller rewrote its listing", d, want)
	})
}

func TestScanVisitsAllRows(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		want := map[uint64]string{}
		for i := uint64(1); i <= 30; i++ {
			tx := d.Begin()
			val := fmt.Sprintf("row-%d", i)
			tx.Put(i, []byte(val))
			tx.Commit(p)
			want[i] = val
		}
		got := map[uint64]string{}
		d.Scan(p, func(r Row) bool {
			got[r.Key] = string(r.Val)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("scan found %d rows, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %d = %q, want %q", k, got[k], v)
			}
		}
	})
}

func TestScanEarlyStop(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		for i := uint64(1); i <= 10; i++ {
			tx := d.Begin()
			tx.Put(i, []byte("x"))
			tx.Commit(p)
		}
		n := 0
		d.Scan(p, func(r Row) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("visited %d rows after early stop", n)
		}
	})
}

func TestViewReadsSnapshotImage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	env.Process("t", func(p *sim.Proc) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(1, []byte("at-snap"))
		tx.Commit(p)
		d.Checkpoint(p)

		snap, err := a.CreateSnapshot("s", "v")
		if err != nil {
			t.Error(err)
			return
		}
		// Mutate after the snapshot; the view must not see it.
		tx2 := d.Begin()
		tx2.Put(1, []byte("after-snap"))
		tx2.Put(2, []byte("new"))
		tx2.Commit(p)
		d.Checkpoint(p)

		view, err := OpenView(p, "analytics", snap, Config{})
		if err != nil {
			t.Error(err)
			return
		}
		v, found, _ := view.Get(p, 1)
		if !found || string(v) != "at-snap" {
			t.Errorf("view sees %q, want at-snap", v)
		}
		if _, found, _ := view.Get(p, 2); found {
			t.Error("view sees post-snapshot row")
		}
	})
	env.Run(0)
}

func TestViewReplaysWALFromImage(t *testing.T) {
	// Snapshot taken WITHOUT checkpoint: data only in WAL. The view's
	// replay must surface it.
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	env.Process("t", func(p *sim.Proc) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(9, []byte("wal-only"))
		tx.Commit(p)
		snap, _ := a.CreateSnapshot("s", "v")
		view, err := OpenView(p, "analytics", snap, Config{})
		if err != nil {
			t.Error(err)
			return
		}
		v, found, _ := view.Get(p, 9)
		if !found || string(v) != "wal-only" {
			t.Errorf("view replay missed WAL delta: %q %v", v, found)
		}
		if view.RecoveredTxns() != 1 {
			t.Errorf("recovered = %d", view.RecoveredTxns())
		}
		if view.ReplayTime() <= 0 {
			t.Error("replay consumed no simulated time")
		}
	})
	env.Run(0)
}

func TestViewRejectsUnformattedImage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	env.Process("t", func(p *sim.Proc) {
		if _, err := OpenView(p, "x", vol, Config{}); !errors.Is(err, ErrNotFormatted) {
			t.Errorf("err = %v", err)
		}
	})
	env.Run(0)
}

func TestViewDoesNotWriteImage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	env.Process("t", func(p *sim.Proc) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(1, []byte("x"))
		tx.Commit(p)
		writesBefore := vol.Writes()
		if _, err := OpenView(p, "view", vol, Config{}); err != nil {
			t.Error(err)
		}
		if vol.Writes() != writesBefore {
			t.Error("read-only view wrote to the volume")
		}
	})
	env.Run(0)
}

func TestWALSizeMismatchRejected(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		if _, err := Open(p, "sales", vol, Config{WALBlocks: 16}); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, "sales", vol, Config{WALBlocks: 32}); err == nil {
			t.Fatal("mismatched WAL size accepted")
		}
	})
}
