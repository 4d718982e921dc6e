package db

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Allocation pins for the write path. Every count is deterministic: the
// volumes are written once in full beforehand (so a first write to a block
// never grows the volume's block map) and transactions reuse one ID (so the
// committed set does not grow). A commit keeps no encode scratch to warm: its
// records are sized in an array on the DB and encoded straight into the WAL
// head block.

// allocVolume returns a 256-block volume with every block written — to a
// copy of image's, where image has one, else to zeroes.
func allocVolume(tb testing.TB, a *storage.Array, id storage.VolumeID, image *storage.Volume) *storage.Volume {
	vol, err := a.CreateVolume(id, 256)
	if err != nil {
		tb.Fatal(err)
	}
	zero := make([]byte, vol.BlockSize())
	for b := int64(0); b < vol.SizeBlocks(); b++ {
		blk := zero
		if image != nil && image.Peek(b) != nil {
			blk = image.Peek(b)
		}
		if err := vol.Poke(b, blk); err != nil {
			tb.Fatal(err)
		}
	}
	return vol
}

// inProcess runs fn as the one process of a fresh environment.
func inProcess(fn func(p *sim.Proc, a *storage.Array)) { inProcessOn(storage.Config{}, fn) }

// inProcessOn is inProcess over an array configured by cfg.
func inProcessOn(cfg storage.Config, fn func(p *sim.Proc, a *storage.Array)) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", cfg)
	env.Process("t", func(p *sim.Proc) { fn(p, a) })
	env.Run(0)
}

// placeOrder is the shop's stock transaction: two 16-byte rows.
func placeOrder(p *sim.Proc, d *DB, val []byte, i int) error {
	tx := d.BeginWithID(1)
	tx.Put(uint64(1+i%8), val)
	tx.Put(uint64(9+i%8), val)
	return tx.Commit(p)
}

// A commit allocates the WAL blocks it starts and nothing else: every rewrite
// of the head block hands over a prefix of that block's one buffer, so there
// is nothing per commit, per row or for the Txn.
func TestCommitAllocatesOnlyTheWALBlocksItWrites(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		d, err := Open(p, "stock", allocVolume(t, a, "v", nil), Config{})
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 16)
		for i := 0; i < 16; i++ { // every page the loop touches is dirty
			placeOrder(p, d, val, i)
		}
		const commits = 200 // several sealed WAL blocks, no checkpoint
		i := 0
		var walBefore int64
		var seqBefore uint32
		allocs := testing.AllocsPerRun(1, func() {
			walBefore, seqBefore = d.WALWrites(), d.walSeq
			for n := 0; n < commits; n++ {
				if err := placeOrder(p, d, val, i); err != nil {
					t.Fatal(err)
				}
				i++
			}
		})
		walBlocks, started := d.WALWrites()-walBefore, d.walSeq-seqBefore
		if d.Checkpoints() != 0 || walBlocks <= commits || started == 0 {
			t.Fatalf("%d checkpoints, %d WAL block writes and %d blocks started for %d commits: want no checkpoint and some sealed blocks",
				d.Checkpoints(), walBlocks, started, commits)
		}
		if allocs != float64(started) {
			t.Fatalf("%d commits (%d WAL block writes) allocated %v times; want exactly the %d WAL blocks they started",
				commits, walBlocks, allocs, started)
		}
	})
}

// dirtyDB opens a database on a fresh volume and dirties n distinct pages.
func dirtyDB(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, n int) *DB {
	d, err := Open(p, string(id), allocVolume(tb, a, id, nil), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	dirty(tb, p, d, n)
	return d
}

// dirty commits one row to each of the database's first n pages.
func dirty(tb testing.TB, p *sim.Proc, d *DB, n int) {
	for k := 1; k <= n; k++ {
		tx := d.BeginWithID(1)
		tx.Put(uint64(k), make([]byte, 16))
		if err := tx.Commit(p); err != nil {
			tb.Fatal(err)
		}
	}
	if owned, _ := tableCounts(&d.reader); owned != n {
		tb.Fatalf("%d dirty pages, want %d", owned, n)
	}
}

// at returns the table's page for block: the zero page when it has none.
func (t *pageTable) at(block int64) page {
	pg, _ := t.get(block)
	return pg
}

// tableCounts counts the reader's page table: the owned pages the next
// checkpoint flushes, and the clean ones.
func tableCounts(r *reader) (owned, clean int) {
	for _, pg := range r.pages.all {
		if pg.owned {
			owned++
		} else {
			clean++
		}
	}
	return owned, clean
}

// Checkpoint hands its dirty pages over: however many there are it allocates
// no page. The first one allocates the I/O vector and the superblock; the
// next, over as many pages, finds the vector sized and allocates the
// superblock only.
func TestCheckpointAllocatesNoPage(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		for _, n := range []int{4, 64} {
			dbs := []*DB{ // AllocsPerRun makes a warm-up call first
				dirtyDB(t, p, a, storage.VolumeID(fmt.Sprint("warm", n)), n),
				dirtyDB(t, p, a, storage.VolumeID(fmt.Sprint("measured", n)), n),
			}
			for round, want := range []float64{2, 1} {
				if round > 0 {
					dirty(t, p, dbs[0], n)
					dirty(t, p, dbs[1], n)
				}
				i := 0
				allocs := testing.AllocsPerRun(1, func() {
					if err := dbs[i].Checkpoint(p); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if flushed := dbs[1].PageFlushes(); flushed != int64((round+1)*n) || allocs != want {
					t.Fatalf("checkpoint %d of %d dirty pages: %d flushed in all, %v allocations; want %v (the vector once, the superblock each time)",
						round+1, n, flushed, allocs, want)
				}
			}
		}
	})
}

// OpenView of a crashed image allocates a fixed part sized once, however many
// pages it redoes, and leaves the redo to the first read. The open makes the
// view, the committed set, the claim counts and the I/O vector, at the log's
// first two chunks and then once more — at the log region's size for a log
// that outgrows them, else at the page scatter's (5). The first read makes the
// page table at its exact size and the one array the redone pages share (2).
// None of them grows as it fills, and a later read of a redone page allocates
// nothing.
func TestOpenViewAllocatesItsSlicesOnce(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		const txns = 8
		for _, pages := range []int{1, 4} {
			image := crashedImage(t, p, a, storage.VolumeID(fmt.Sprint("image", pages)), txns, pages)
			views := make([]*View, 0, 2)
			open := testing.AllocsPerRun(1, func() {
				v, err := OpenView(p, "view", image, Config{})
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
			})
			v := views[1]
			unread, _ := tableCounts(&v.reader)
			i := 0
			first := testing.AllocsPerRun(1, func() {
				if _, ok, err := views[i].Get(p, 1); !ok || err != nil {
					t.Fatalf("key 1: found %v, %v", ok, err)
				}
				i++
			})
			later := testing.AllocsPerRun(1, func() { v.Get(p, 1) })
			if owned, _ := tableCounts(&v.reader); v.RecoveredTxns() != txns || unread != 0 || owned != pages || open != 5 || first != 2 || later != 0 {
				t.Fatalf("OpenView found %d transactions and held %d pages with %v allocations, its first read redid them into %d pages with %v, a later read made %v; want %d, 0 with 5, %d with 2, 0",
					v.RecoveredTxns(), unread, open, owned, first, later, txns, pages)
			}
		}
	})
}

// A Txn.Commit that writes a page of a table holding exactly 8 pages
// allocates nothing: the page is written where its slot sits. (A Go map of 8
// entries is one full group, which its next assignment, an overwrite too, turns
// into a table: 3 allocations.) Each database holds 7 dirty pages and an 8th
// read clean, all never written, and the measured commit writes the 8th, in
// the arena's first chunk and the WAL's head block.
func TestCommitInAFullEightPageTableAllocatesNothing(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		var dbs [2]*DB
		for i := range dbs {
			vol, err := a.CreateVolume(storage.VolumeID(fmt.Sprint("v", i)), 256)
			if err != nil {
				t.Fatal(err)
			}
			if dbs[i], err = Open(p, "sales", vol, Config{}); err != nil {
				t.Fatal(err)
			}
			dirty(t, p, dbs[i], 7)
			if _, _, err := dbs[i].Get(p, 8); err != nil {
				t.Fatal(err)
			}
		}
		d, seq := dbs[1], dbs[1].walSeq
		i := 0
		allocs := testing.AllocsPerRun(1, func() {
			tx := dbs[i].BeginWithID(1)
			tx.Put(8, make([]byte, 16))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if owned, clean := tableCounts(&d.reader); owned != 8 || clean != 0 || d.walSeq != seq || allocs != 0 {
			t.Fatalf("a commit into a table of %d owned and %d clean pages (%d WAL blocks started) allocated %v times; want 8 owned, no block started, 0",
				owned, clean, d.walSeq-seq, allocs)
		}
	})
}

// The fleet's view shape: 512-byte blocks and a snapshot whose rows are all in
// a short WAL, nothing checkpointed. The vector starts at the log's first two
// chunks (3 blocks), which any non-empty log reads: a log of two live blocks
// never sizes it by the WAL region, and the page scatter, with no room behind
// the log's blocks, gets a vector of its own at the pages' count. A log that
// outgrows two chunks grows the vector to the region once, and the scatter
// takes the room behind the blocks read. Either way the scatter is the claimed
// pages in block order, the log's blocks stay where the redo will walk them,
// and OpenView makes the 5 allocations pinned above.
func TestOpenViewVectorReachesTheRegionOnlyPastTwoChunks(t *testing.T) {
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		for _, c := range []struct {
			vlen, live, read int
			behind           bool // the scatter sits behind the log's blocks in a region-sized vector
		}{{16, 2, 3, false}, {96, 3, 7, true}} {
			image := walOnlyImage(t, p, a, storage.VolumeID(fmt.Sprint("image", c.vlen)), c.vlen)
			var v *View
			allocs := testing.AllocsPerRun(1, func() {
				var err error
				if v, err = OpenView(p, "view", image, Config{}); err != nil {
					t.Fatal(err)
				}
			})
			live, read := v.LogBlocks()
			wantCap := 4 // walOnlyImage's pages
			if c.behind {
				wantCap = v.cfg.WALBlocks - read
			}
			if live != c.live || read != c.read || cap(v.vec) != wantCap || allocs != 5 {
				t.Fatalf("%d-byte rows: %d live log blocks of %d read, scatter cap %d, %v allocations; want %d of %d, cap %d, 5",
					c.vlen, live, read, cap(v.vec), allocs, c.live, c.read, wantCap)
			}
			for i, io := range v.vec {
				if io.Block != v.dataBase+int64(i+1) { // keys 1..4 on pages 1..4
					t.Fatalf("%d-byte rows: scatter %d read block %d, want %d", c.vlen, i, io.Block, v.dataBase+int64(i+1))
				}
			}
		}
	})
}

// walOnlyImage is a fleet tenant's database as its snapshot holds it: 8
// single-row transactions of vlen-byte values over 4 pages, never
// checkpointed, on a fresh volume whose data pages were never written.
func walOnlyImage(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, vlen int) *storage.Volume {
	vol, err := a.CreateVolume(id, 256)
	if err != nil {
		tb.Fatal(err)
	}
	return commitLogOnly(tb, p, vol, 8, 4, vlen)
}

// BenchmarkOpenViewWALOnly: one op is the analytics step on a fleet tenant's
// snapshot — OpenView of walOnlyImage's 2-block log with 16-byte rows, then
// one Scan, whose preload of the never-written data region reads nil.
func BenchmarkOpenViewWALOnly(b *testing.B) {
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		image := walOnlyImage(b, p, a, "image", 16)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			v, err := OpenView(p, "view", image, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if err := v.Scan(p, func(Row) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// crashedImage commits txns single-row transactions over `pages` distinct
// pages and returns the volume as a crash leaves it: rows only in the WAL.
func crashedImage(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, txns, pages int) *storage.Volume {
	return commitLogOnly(tb, p, allocVolume(tb, a, id, nil), txns, pages, 16)
}

// commitLogOnly commits txns single-row transactions of vlen-byte values over
// `pages` distinct pages to vol and returns it as a crash leaves it: rows only
// in the WAL.
func commitLogOnly(tb testing.TB, p *sim.Proc, vol *storage.Volume, txns, pages, vlen int) *storage.Volume {
	d, err := Open(p, "crashed", vol, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		tx := d.Begin()
		tx.Put(uint64(1+i%pages), make([]byte, vlen))
		if err := tx.Commit(p); err != nil {
			tb.Fatal(err)
		}
	}
	if d.Checkpoints() != 0 {
		tb.Fatalf("%d transactions forced a checkpoint; the image must hold them in the WAL", txns)
	}
	return vol
}

// recoveryAllocs counts the allocations of one Open that redoes txns
// transactions over `pages` distinct pages.
func recoveryAllocs(t *testing.T, p *sim.Proc, a *storage.Array, txns, pages int) float64 {
	id := func(role string) storage.VolumeID { return storage.VolumeID(fmt.Sprint(role, pages)) }
	image := crashedImage(t, p, a, id("image"), txns, pages)
	vols := []*storage.Volume{allocVolume(t, a, id("warm"), image), allocVolume(t, a, id("measured"), image)}
	i := 0
	var d *DB
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if d, err = Open(p, "recovered", vols[i], Config{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if d.RecoveredTxns() != txns || d.PageFlushes() != int64(pages) {
		t.Fatalf("recovered %d transactions into %d pages, want %d into %d", d.RecoveredTxns(), d.PageFlushes(), txns, pages)
	}
	return allocs
}

// tableSink keeps tableAllocs's tables on the heap, as a reader's is.
var tableSink pageTable

// tableAllocs counts the allocations of making a page table sized for n pages.
func tableAllocs(n int) float64 {
	return testing.AllocsPerRun(1, func() { tableSink = makePageTable(n) })
}

// Recovery allocates nothing per page it redoes: the redone pages share one
// array, which the checkpoint hands over slice by slice and leaves in the
// table where they sit. So 32 more redone pages for the same log cost at most
// what the one page table, made at its exact size, costs more — where a page
// copied on its first redone row cost one allocation each.
func TestRecoveryAllocatesNothingPerRedonePage(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		const txns, few, many = 80, 8, 40
		base, more := recoveryAllocs(t, p, a, txns, few), recoveryAllocs(t, p, a, txns, many)
		if growth := tableAllocs(many) - tableAllocs(few); more-base > growth {
			t.Fatalf("recovery of %d transactions: %v allocations over %d pages, %v over %d: %v more, want at most the table's, %v",
				txns, base, few, more, many, more-base, growth)
		}
	})
}

// BenchmarkTxnCommit: one op is the shop's stock transaction — Begin, two
// 16-byte Puts, Commit — on warm pages of an unreplicated volume.
func BenchmarkTxnCommit(b *testing.B) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		d, err := Open(p, "stock", allocVolume(b, a, "v", nil), Config{})
		if err != nil {
			b.Fatal(err)
		}
		val := make([]byte, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := placeOrder(p, d, val, i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecover: one op is Open on a crashed image — read the WAL until it
// ends, redo, checkpoint. The sim-µs metrics are the recovery's requests on
// the idle 8-slot array. 256tx: 256 committed single-row transactions over 64
// pages of zeroed blocks — a 5-block log read as 7 blocks in 3 chunks, 64
// pages read, 64 pages and the superblock written. rows2-3: shop_adc's
// failover shape, 64 pages that hold one checkpointed row each and a log of
// 96 single-row transactions inserting more, so each redone page holds 2 or 3
// rows and its copy is sized to them, not to the 4 KB block. empty: a log with
// nothing in it — one block read, no page, the superblock written.
func BenchmarkRecover(b *testing.B) {
	for _, c := range []struct {
		name  string
		image func(tb testing.TB, p *sim.Proc, a *storage.Array) *storage.Volume
	}{
		{"256tx", func(tb testing.TB, p *sim.Proc, a *storage.Array) *storage.Volume {
			return crashedImage(tb, p, a, "image", 256, 64)
		}},
		{"rows2-3", func(tb testing.TB, p *sim.Proc, a *storage.Array) *storage.Volume {
			return rowsImage(tb, p, a, "image", 64, 96)
		}},
		{"empty", func(tb testing.TB, p *sim.Proc, a *storage.Array) *storage.Volume {
			return crashedImage(tb, p, a, "image", 0, 1)
		}},
	} {
		b.Run(c.name, func(b *testing.B) { benchmarkRecover(b, c.image) })
	}
}

// rowsImage checkpoints one row on each of `pages` pages, then commits txns
// single-row transactions inserting new keys over the same pages, and returns
// the volume as a crash leaves it: the pages on the volume as the prefixes of
// their first rows, the inserts only in the WAL. Its blocks are written only
// where the database wrote them: a page copied from a zeroed block would be
// the whole block.
func rowsImage(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, pages, txns int) *storage.Volume {
	vol, err := a.CreateVolume(id, 256)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := Open(p, "crashed", vol, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	put := func(key uint64) {
		tx := d.Begin()
		tx.Put(key, make([]byte, 16))
		if err := tx.Commit(p); err != nil {
			tb.Fatal(err)
		}
	}
	for k := range pages {
		put(uint64(1 + k))
	}
	if err := d.Checkpoint(p); err != nil {
		tb.Fatal(err)
	}
	for i := range txns {
		put(uint64(1+i%pages) + uint64(1+i/pages)*uint64(d.dataPages))
	}
	if d.Checkpoints() != 1 {
		tb.Fatalf("%d checkpoints; the image must hold the inserts in the WAL", d.Checkpoints())
	}
	return vol
}

func benchmarkRecover(b *testing.B, build func(tb testing.TB, p *sim.Proc, a *storage.Array) *storage.Volume) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		image := build(b, p, a)
		b.ReportAllocs()
		b.ResetTimer()
		var d *DB
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			vol := allocVolume(b, a, "v", image)
			b.StartTimer()
			var err error
			if d, err = Open(p, "recovered", vol, Config{}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			a.DeleteVolume("v")
			b.StartTimer()
		}
		for name, phase := range map[string]time.Duration{"log": d.LogReadTime(), "pages": d.PageReadTime(), "flush": d.FlushTime()} {
			b.ReportMetric(float64(phase.Microseconds()), name+"-sim-µs")
		}
	})
}
