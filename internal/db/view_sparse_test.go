package db

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// sparseImage builds a database of `rows` rows on a volume of sizeBlocks
// blocks — half of them checkpointed into data pages, half still only in
// the WAL — and snapshots it. Almost every data page was never written.
func sparseImage(tb testing.TB, sizeBlocks int64, rows int) (*sim.Env, *storage.Snapshot) {
	tb.Helper()
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, err := a.CreateVolume("v", sizeBlocks)
	if err != nil {
		tb.Fatal(err)
	}
	var snap *storage.Snapshot
	env.Process("build", func(p *sim.Proc) {
		d, err := Open(p, "sales", vol, Config{})
		if err != nil {
			tb.Error(err)
			return
		}
		for i := 1; i <= rows; i++ {
			tx := d.Begin()
			tx.Put(uint64(i), []byte(fmt.Sprintf("row-%d", i)))
			if err := tx.Commit(p); err != nil {
				tb.Error(err)
			}
			if i == rows/2 {
				d.Checkpoint(p)
			}
		}
		snap, err = a.CreateSnapshot("s", "v")
		if err != nil {
			tb.Error(err)
		}
	})
	env.Run(0)
	return env, snap
}

// openAndScan opens a view on the image and scans it, returning the rows.
func openAndScan(tb testing.TB, env *sim.Env, snap *storage.Snapshot) map[uint64]string {
	rows := map[uint64]string{}
	env.Process("view", func(p *sim.Proc) {
		v, err := OpenView(p, "analytics", snap, Config{})
		if err != nil {
			tb.Error(err)
			return
		}
		if err := v.Scan(p, func(r Row) bool {
			rows[r.Key] = string(r.Val)
			return true
		}); err != nil {
			tb.Error(err)
		}
		// After the preload, a key homed on a never-written page is a clean
		// miss, not a read of a nil page.
		if _, found, err := v.Get(p, 100); found || err != nil {
			tb.Errorf("Get of an absent key after Scan: found=%v err=%v", found, err)
		}
	})
	env.Run(0)
	return rows
}

// A view over a mostly-empty image must cost what the image holds, not what
// the volume could hold: never-written pages are nil in the sparse range and
// are neither materialised nor copied. Sixteen times the volume, same rows:
// same allocations (one range slice either way).
func TestViewScanCostFollowsWrittenPagesNotVolumeSize(t *testing.T) {
	const rows = 8
	cost := func(sizeBlocks int64) float64 {
		env, snap := sparseImage(t, sizeBlocks, rows)
		if got := openAndScan(t, env, snap); len(got) != rows || got[3] != "row-3" || got[rows] != fmt.Sprintf("row-%d", rows) {
			t.Fatalf("%d-block image: scan saw %v", sizeBlocks, got)
		}
		return testing.AllocsPerRun(10, func() { openAndScan(t, env, snap) })
	}
	small, large := cost(256), cost(4096)
	if large > small+2 {
		t.Fatalf("OpenView+Scan allocates %v times on a 256-block image but %v on a 4096-block one holding the same %d rows",
			small, large, rows)
	}
}

// The view replays the WAL into pages it copied and reads everything else in
// place, so opening and scanning it must leave the borrowed image untouched.
func TestViewLeavesBorrowedImageUntouched(t *testing.T) {
	env, snap := sparseImage(t, 256, 8)
	before := make([][]byte, snap.SizeBlocks())
	for b := range before {
		before[b] = bytes.Clone(snap.Peek(int64(b))) // Peek borrows
	}
	openAndScan(t, env, snap)
	for b := range before {
		if !bytes.Equal(before[b], snap.Peek(int64(b))) {
			t.Fatalf("block %d of the snapshot changed under the view", b)
		}
	}
}

// A live database's Scan caches the data region as the borrowed range it
// read, and commits change cached pages: a commit must copy the page first, or
// it would edit the volume's stored block behind its back (no-force: data
// pages reach the volume only at Checkpoint).
func TestCommitAfterScanCopiesTheBorrowedPage(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(7, []byte("old"))
		tx.Commit(p)
		d.Checkpoint(p)

		d2, err := Open(p, "sales", vol, Config{}) // empty page cache
		if err != nil {
			t.Fatal(err)
		}
		d2.Scan(p, func(Row) bool { return true })
		page := d2.pageBlock(7)
		onDisk := vol.Peek(page) // borrowed: the stored slice itself
		onDiskBytes := bytes.Clone(onDisk)
		tx = d2.Begin()
		tx.Put(7, []byte("new"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDiskBytes, onDisk) || !bytes.Equal(onDiskBytes, vol.Peek(page)) {
			t.Fatal("a commit after Scan changed the volume's data page before any checkpoint")
		}
		if v, _, _ := d2.Get(p, 7); string(v) != "new" {
			t.Fatalf("cached page reads %q, want new", v)
		}
	})
}

// One preload rule behind both doors: the first Scan pulls the data region
// with one range read whatever single pages a Get cached before it — every one
// of them, even — and from then on neither Get nor Scan reads the volume again.
// (The rule is "preloaded or not", never a count of the pages already cached.)
func TestBothDoorsPreloadTheDataRegionOnFirstScan(t *testing.T) {
	cfg := Config{WALBlocks: 8}
	const size, dataPages = 24, 24 - 1 - 8
	type door interface {
		Get(p *sim.Proc, key uint64) ([]byte, bool, error)
		Scan(p *sim.Proc, fn func(Row) bool) error
	}
	doors := map[string]func(p *sim.Proc, vol *storage.Volume) (door, error){
		"view": func(p *sim.Proc, vol *storage.Volume) (door, error) { return OpenView(p, "v", vol, cfg) },
		"db":   func(p *sim.Proc, vol *storage.Volume) (door, error) { return Open(p, "d", vol, cfg) },
	}
	for name, open := range doors {
		for _, singly := range []int{0, 1, dataPages} { // pages a Get caches before the first Scan
			t.Run(fmt.Sprintf("%s_after_%d_gets", name, singly), func(t *testing.T) {
				withVolume(t, size, func(p *sim.Proc, vol *storage.Volume) {
					d, _ := Open(p, "build", vol, cfg)
					for k := uint64(1); k <= dataPages; k++ { // one row on every page
						tx := d.Begin()
						tx.Put(k, []byte{byte(k)})
						tx.Commit(p)
					}
					d.Checkpoint(p)
					r, err := open(p, vol)
					if err != nil {
						t.Fatal(err)
					}
					step := func(what string, want int64, fn func()) {
						t.Helper()
						before := vol.Reads()
						fn()
						if got := vol.Reads() - before; got != want {
							t.Fatalf("%s read %d blocks, want %d", what, got, want)
						}
					}
					scan := func() {
						rows := 0
						r.Scan(p, func(Row) bool { rows++; return true })
						if rows != dataPages {
							t.Fatalf("scan saw %d rows, want %d", rows, dataPages)
						}
					}
					get := func(n int) func() {
						return func() {
							for k := uint64(1); k <= uint64(n); k++ {
								if v, ok, _ := r.Get(p, k); !ok || v[0] != byte(k) {
									t.Fatalf("get %d = %v, %v", k, v, ok)
								}
							}
						}
					}
					step("gets before the scan", int64(singly), get(singly))
					step("the same gets again", 0, get(singly))
					step("first scan", dataPages, scan)
					step("gets after the scan", 0, get(dataPages))
					step("second scan", 0, scan)
				})
			})
		}
	}
}

// BenchmarkOpenViewSparse: one op opens a view on a 256-block snapshot
// holding 8 rows and scans it — the fleet's per-tenant verify step.
func BenchmarkOpenViewSparse(b *testing.B) {
	env, snap := sparseImage(b, 256, 8)
	openAndScan(b, env, snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openAndScan(b, env, snap)
	}
}

// Reads are borrowed, so a slice peeked from the volume IS the stored data
// page — and after a cache fill it is the cached page too. The database
// upserts on commit and on redo, and a view while it replays: each must do so
// in a copy it owns, taken on the first write. Commit,
// crash recovery's redo, checkpoint and a view's replay of an update to that
// very page all leave the peeked slice — and, for the view, the snapshot —
// byte for byte what it was.
func TestPageCacheAndViewOverlayOwnTheirCopies(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	env.Process("t", func(p *sim.Proc) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(7, []byte("old"))
		tx.Commit(p)
		d.Checkpoint(p) // the row's page is on the volume

		d, err := Open(p, "sales", vol, Config{}) // empty page cache
		if err != nil {
			t.Fatal(err)
		}
		page := d.pageBlock(7)
		peeked := vol.Peek(page)
		was := bytes.Clone(peeked)
		same := func(stage string) {
			t.Helper()
			if !bytes.Equal(peeked, was) {
				t.Fatalf("%s wrote into the block borrowed from the volume", stage)
			}
		}
		if v, _, _ := d.Get(p, 7); string(v) != "old" { // fills the cache from a borrowed Read
			t.Fatalf("get = %q", v)
		}
		tx = d.Begin()
		tx.Put(7, []byte("new"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		same("commit")
		if &vol.Peek(page)[0] != &peeked[0] {
			t.Fatal("no-force: the data page must not reach the volume before a checkpoint")
		}

		// The update is only in the WAL: a snapshot now makes a view replay it
		// into a page the image holds, and a reopen makes recovery redo it.
		snap, err := a.CreateSnapshot("s", "v")
		if err != nil {
			t.Fatal(err)
		}
		view, err := OpenView(p, "analytics", snap, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if v, _, _ := view.Get(p, 7); string(v) != "new" {
			t.Fatalf("view reads %q, want the replayed update", v)
		}
		same("view replay")
		if got := snap.Peek(page); &got[0] != &peeked[0] {
			t.Fatal("the snapshot no longer shares the untouched parent block")
		}
		// The owned pages are only what the replay cloned. A page read one at a
		// time is the image's own slice: cached clean, where nothing writes,
		// and read once.
		if owned, _ := tableCounts(&view.reader); owned != 1 || &view.pages.at(page).data[0] == &peeked[0] {
			t.Fatalf("owned = %d pages; want only a clone of the replayed page", owned)
		}
		other := view.pageBlock(8)
		view.Get(p, 8)
		ops := a.ReadOps()
		view.Get(p, 8)
		if _, clean := tableCounts(&view.reader); view.pages.at(other).owned || clean != 1 || a.ReadOps() != ops {
			t.Fatalf("borrowed page: owned=%v, clean=%d, re-read=%v; want false, 1, false",
				view.pages.at(other).owned, clean, a.ReadOps() != ops)
		}

		d, err = Open(p, "sales", vol, Config{}) // redo + recovery checkpoint
		if err != nil {
			t.Fatal(err)
		}
		same("redo and checkpoint")
		if d.RecoveredTxns() == 0 {
			t.Fatal("recovery had nothing to redo; the redo path was not exercised")
		}
		if got := snap.Peek(page); !bytes.Equal(got, was) {
			t.Fatal("the checkpoint under a live snapshot changed the snapshot's image")
		}
		if got := vol.Peek(page); bytes.Equal(got, was) {
			t.Fatal("the checkpoint did not flush the redone page")
		}
	})
	env.Run(0)
}
