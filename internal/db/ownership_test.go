package db

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Checkpoint hands each dirty page over as its prefix, capped at its length:
// from then on the page is the primary's stored block, the Data of its journal
// record, whatever a backup adopted from that record and whatever a snapshot
// preserves. A later commit to the page — rewriting its row and appending a
// slot — must copy first, and the flush after it must install a fresh slice:
// all four stay byte for byte, length and capacity what was flushed.
func TestCommitAfterCheckpointCopiesTheHandedOverPage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	src, _ := a.CreateVolume("src", 256)
	twin, _ := a.CreateVolume("twin", 256)
	sj, _ := a.CreateConsistencyGroup("j", []storage.VolumeID{"src"}, 1)
	j := sj.Shards()[0]
	env.Process("t", func(p *sim.Proc) {
		d, err := Open(p, "sales", src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tx := d.Begin()
		tx.Put(7, []byte("flushed"))
		tx.Commit(p)
		page := d.pageBlock(7)
		owned := d.pages[page].data
		d.Checkpoint(p)
		if dirty, _ := tableCounts(&d.reader); dirty != 0 || &d.pages[page].data[0] != &owned[0] || &src.Peek(page)[0] != &owned[0] {
			t.Fatal("checkpoint must hand the dirty page to the volume and keep it as the clean page")
		}
		if stored := src.Peek(page); len(stored) != slotSize || cap(stored) != len(stored) {
			t.Fatalf("the handed-over page is %d bytes with capacity %d; want its one slot, capped", len(stored), cap(stored))
		}
		flushed := bytes.Clone(src.Peek(page))

		pending := j.PendingRecords()  // the page's record is still in the journal
		rec := pending[len(pending)-2] // data page, then the superblock
		if rec.Block != page || &rec.Data[0] != &owned[0] {
			t.Fatalf("journal record %d is block %d; want the handed-over page %d", len(pending)-2, rec.Block, page)
		}
		if err := twin.InstallDelta(page, rec.Data); err != nil { // the backup adopts it
			t.Fatal(err)
		}
		snap, err := a.CreateSnapshot("s", "src")
		if err != nil {
			t.Fatal(err)
		}
		same := func(stage string) {
			t.Helper()
			for name, got := range map[string][]byte{
				"journal record": rec.Data, "backup block": twin.Peek(page), "snapshot": snap.Peek(page),
			} {
				if !bytes.Equal(got, flushed) || cap(got) != len(flushed) {
					t.Fatalf("%s: the %s is no longer what was flushed: %d bytes, capacity %d", stage, name, len(got), cap(got))
				}
			}
		}

		tx = d.Begin()
		tx.Put(7, []byte("rewritten"))
		tx.Put(7+uint64(d.dataPages), []byte("appended")) // same page, a new slot
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		same("commit to a clean page")
		if !bytes.Equal(src.Peek(page), flushed) {
			t.Fatal("no-force: the commit changed the primary's stored page")
		}
		if pg := d.pages[page]; !pg.owned || &pg.data[0] == &owned[0] || len(pg.data) != 2*slotSize {
			t.Fatalf("the commit wrote into the page it had handed over, or left %d bytes, not two owned slots", len(pg.data))
		}
		d.Checkpoint(p)
		same("second checkpoint")
		if v, _, _ := d.Get(p, 7); string(v) != "rewritten" || bytes.Equal(src.Peek(page), flushed) {
			t.Fatalf("after the second checkpoint the row reads %q and the stored page is the old one: %v",
				v, bytes.Equal(src.Peek(page), flushed))
		}
	})
	env.Run(0)
}

// The replay redoes every page into one shared array, each page a capped slice
// with room for exactly what its redo appends. An upsert into a redone page
// past that room copies the page out; the page laid out behind it in the array
// keeps every byte.
func TestUpsertPastARedonePagesRoomCopies(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		n := uint64(d.dataPages)
		put := func(keys ...uint64) {
			tx := d.Begin()
			for _, k := range keys {
				tx.Put(k, []byte{byte(k)})
			}
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		put(1, 2)
		d.Checkpoint(p) // pages 1 and 2 on the volume, one slot each
		put(1+n, 2+n)   // a second slot on each, only in the WAL

		view, err := OpenView(p, "analytics", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		first, next := view.pages[view.pageBlock(1)].data, view.pages[view.pageBlock(2)].data
		for _, pg := range [][]byte{first, next} {
			if len(pg) != 2*slotSize || cap(pg) != len(pg) {
				t.Fatalf("a redone page is %d bytes with capacity %d; want its two slots and no more room", len(pg), cap(pg))
			}
		}
		kept := bytes.Clone(next)
		grown, err := pageUpsert(first, Row{Key: 1 + 2*n, Val: []byte("third")}, view.blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(grown) != 3*slotSize || &grown[0] == &first[0] {
			t.Fatalf("an upsert past the room left %d bytes in the same array: %v; want 3 slots in a copy", len(grown), &grown[0] == &first[0])
		}
		if !bytes.Equal(next, kept) {
			t.Fatal("an upsert past a redone page's room wrote into the next page of the replay's array")
		}
	})
}

// A WAL block handed over never changes: the head block is one buffer per
// (epoch, seq) and every rewrite hands over a longer capped prefix of it. The
// versions a block was handed over in — as the volume lends it, as its journal
// record carries it, as the backup installed it and as a snapshot preserves
// it — keep their bytes and their length through later commits into the same
// block, through the seal, and through a checkpoint and a commit into seq 0
// of the next epoch; and each is capped, so an append by its holder copies.
// A head buffer reused after a seal or a checkpoint rewrites a kept header.
func TestHandedOverWALBlocksNeverChange(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	src, _ := a.CreateVolume("src", 256)
	twin, _ := a.CreateVolume("twin", 256)
	sj, _ := a.CreateConsistencyGroup("j", []storage.VolumeID{"src"}, 1)
	j := sj.Shards()[0]
	env.Process("t", func(p *sim.Proc) {
		d, err := Open(p, "stock", src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 16)
		commit := func() {
			t.Helper()
			if err := placeOrder(p, d, val, 0); err != nil {
				t.Fatal(err)
			}
		}
		type held struct {
			what string
			get  func() []byte
			want []byte
		}
		var kept []held
		// keep holds the head block as the last commit handed it over.
		keep := func(version string) {
			t.Helper()
			block := d.walBase + int64(d.walSeq)
			pending := j.PendingRecords()
			rec := pending[len(pending)-1]
			if rec.Block != block {
				t.Fatalf("%s: the last journal record is block %d, not the head block %d", version, rec.Block, block)
			}
			if err := twin.InstallDelta(block, rec.Data); err != nil {
				t.Fatal(err)
			}
			snap, err := a.CreateSnapshot(version, "src")
			if err != nil {
				t.Fatal(err)
			}
			lent, installed := src.Peek(block), twin.Peek(block)
			want := bytes.Clone(lent)
			for _, h := range []held{
				{"volume's block", func() []byte { return lent }, want},
				{"journal record", func() []byte { return rec.Data }, want},
				{"backup's block", func() []byte { return installed }, want},
				{"snapshot", func() []byte { return snap.Peek(block) }, want},
			} {
				h.what = version + " " + h.what
				kept = append(kept, h)
			}
		}
		check := func(stage string) {
			t.Helper()
			for _, h := range kept {
				got := h.get()
				if !bytes.Equal(got, h.want) || cap(got) != len(got) {
					t.Fatalf("after %s: the %s is %d bytes (cap %d), want the %d it was handed over with, unchanged",
						stage, h.what, len(got), cap(got), len(h.want))
				}
			}
		}

		for range 3 {
			commit()
		}
		first := d.walSeq
		keep("mid-fill")
		commit()
		if d.walSeq != first {
			t.Fatal("one more commit sealed the block; the test needs it to land in the same block")
		}
		check("a commit into the same block")
		for d.walSeq == first {
			commit()
		}
		check("the seal")
		keep("next-block")
		epoch := d.epoch
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		commit()
		if d.epoch != epoch+1 || d.walSeq != 0 {
			t.Fatalf("after the checkpoint the commit went to epoch %d seq %d, want epoch %d seq 0", d.epoch, d.walSeq, epoch+1)
		}
		check("a checkpoint and a commit into seq 0")
	})
	env.Run(0)
}

// Reading never copies a page: after Get and Scan every cached page is the
// volume's own slice (nil where nothing was written) and nothing is dirty.
func TestReadsCacheBorrowedPages(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(7, []byte("a"))
		tx.Put(8, []byte("b"))
		tx.Commit(p)
		d.Checkpoint(p)

		d, err := Open(p, "sales", vol, Config{}) // empty page cache
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := d.Get(p, 7); !ok || string(v) != "a" {
			t.Fatalf("get = %q, %v", v, ok)
		}
		rows := 0
		d.Scan(p, func(Row) bool { rows++; return true })
		if dirty, clean := tableCounts(&d.reader); rows != 2 || int64(len(d.region)) != d.dataPages || clean != 1 || dirty != 0 {
			t.Fatalf("scan saw %d rows, cached %d of %d pages and %d singly, %d dirty", rows, len(d.region), d.dataPages, clean, dirty)
		}
		borrowed := func(b int64, pg []byte) {
			t.Helper()
			stored := vol.Peek(b)
			if (pg == nil) != (stored == nil) || (pg != nil && &pg[0] != &stored[0]) {
				t.Fatalf("cached page %d is not the volume's stored slice", b)
			}
		}
		borrowed(d.pageBlock(7), d.pages[d.pageBlock(7)].data)
		for i, pg := range d.region {
			borrowed(d.dataBase+int64(i), pg)
		}
		// A commit into a never-written (nil) page starts from a zero page.
		tx = d.Begin()
		tx.Put(9, []byte("c"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := d.Get(p, 9); !ok || string(v) != "c" || vol.Peek(d.pageBlock(9)) != nil {
			t.Fatalf("row on a fresh page reads %q, %v; its block must stay unwritten until a checkpoint", v, ok)
		}
	})
}

// A Scan of a data region never written preloads it as nil, and a Checkpoint
// after it still caches every page it hands over: the checkpointed rows are
// served from the table, each page clean and the volume's own slice, with no
// further volume read.
func TestCheckpointAfterUnwrittenPreloadKeepsPagesClean(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		d, err := Open(p, "sales", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		scan := func() {
			rows = 0
			if err := d.Scan(p, func(Row) bool { rows++; return true }); err != nil {
				t.Fatal(err)
			}
		}
		scan()
		if rows != 0 || !d.preloaded || d.region != nil {
			t.Fatalf("scan of an unwritten region saw %d rows, preloaded %v, region of %d pages; want 0, true, nil", rows, d.preloaded, len(d.region))
		}
		tx := d.Begin()
		tx.Put(7, []byte("a"))
		tx.Put(8, []byte("b"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		reads := vol.Reads()
		for key, want := range map[uint64]string{7: "a", 8: "b"} {
			if v, ok, err := d.Get(p, key); err != nil || !ok || string(v) != want {
				t.Fatalf("get %d = %q, %v, %v; want %q", key, v, ok, err, want)
			}
			b := d.pageBlock(key)
			if pg, stored := d.pages[b], vol.Peek(b); pg.owned || stored == nil || &pg.data[0] != &stored[0] {
				t.Fatalf("page %d is not cached as the volume's stored slice", b)
			}
		}
		scan()
		if dirty, _ := tableCounts(&d.reader); rows != 2 || vol.Reads() != reads || dirty != 0 {
			t.Fatalf("after the checkpoint: scan saw %d rows, %d volume reads, %d dirty pages; want 2, 0, 0", rows, vol.Reads()-reads, dirty)
		}
	})
}

// slowRead is a volume whose next Read, once delay is set, completes that much
// later than the array serves it.
type slowRead struct {
	*storage.Volume
	delay time.Duration
}

func (v *slowRead) Read(p *sim.Proc, block int64) ([]byte, error) {
	delay := v.delay
	v.delay = 0
	data, err := v.Volume.Read(p, block)
	p.Sleep(delay)
	return data, err
}

// A clean page read while a commit wrote the same page never replaces the
// owned one. Process A's Get reads a cold page and is slow to complete; process
// B commits a row to that page and finishes meanwhile. A's Get may answer with
// the page as it was before B's commit, since its read started first — but
// after it a Get and a Scan see B's row, and a Checkpoint flushes it.
func TestSlowReadNeverReplacesAWrittenPage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	base, err := a.CreateVolume("dbvol", 256)
	if err != nil {
		t.Fatal(err)
	}
	vol := &slowRead{Volume: base}
	env.Process("A", func(p *sim.Proc) {
		d, _ := Open(p, "sales", vol, Config{})
		tx := d.Begin()
		tx.Put(7, []byte("a"))
		tx.Commit(p)
		d.Checkpoint(p)
		if d, err = Open(p, "sales", vol, Config{}); err != nil { // cold: nothing cached
			t.Fatal(err)
		}
		done := false
		env.Process("B", func(p *sim.Proc) {
			tx := d.Begin()
			tx.Put(7, []byte("b"))
			if err := tx.Commit(p); err != nil {
				t.Error(err)
			}
			done = true
		})
		vol.delay = 10 * time.Millisecond
		v, _, err := d.Get(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !done || (string(v) != "a" && string(v) != "b") {
			t.Fatalf("A's slow Get read %q with B done %v; want B's commit finished and the row before or after it", v, done)
		}
		if v, _, _ := d.Get(p, 7); string(v) != "b" {
			t.Fatalf("a Get after the slow one reads %q, want B's row", v)
		}
		var scanned string
		d.Scan(p, func(r Row) bool {
			if r.Key == 7 {
				scanned = string(r.Val)
			}
			return true
		})
		if scanned != "b" {
			t.Fatalf("a Scan after the slow Get reads %q, want B's row", scanned)
		}
		flushed := d.PageFlushes()
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		row, _ := pageLookup(base.Peek(d.pageBlock(7)), 7)
		if d.PageFlushes()-flushed != 1 || string(row.Val) != "b" {
			t.Fatalf("the checkpoint flushed %d pages and stored %q; want B's page, with B's row", d.PageFlushes()-flushed, row.Val)
		}
	})
	env.Run(0)
}

// txnShape builds one transaction's rows: n rows of vlen-byte values, each
// value distinct, with every third key repeated so last-write-wins is exercised.
func txnShape(n, vlen int) (keys []uint64, vals [][]byte) {
	for i := 0; i < n; i++ {
		key := uint64(i + 1)
		if i%3 == 2 {
			key = uint64(i) // overwrites the previous row's key
		}
		keys = append(keys, key)
		vals = append(vals, bytes.Repeat([]byte{byte(i + 1)}, vlen))
	}
	return keys, vals
}

// Put copies: the caller scribbles over its buffer right after Put, and the
// commit and crash recovery see the original. Transactions inside the inline
// capacity (1 and 2 small rows), crossing it (3 rows: the inline rows move to
// the arena) and far past it (63 rows, and 5 rows of MaxValLen) commit, are
// dropped uncommitted and recover alike.
func TestTxnCarriesItsOwnCopiesAtEverySize(t *testing.T) {
	for _, shape := range []struct{ rows, vlen int }{{1, 16}, {2, 16}, {1, 25}, {3, 16}, {2, 17}, {63, 16}, {5, MaxValLen}} {
		t.Run(fmt.Sprintf("%drows_%dbytes", shape.rows, shape.vlen), func(t *testing.T) {
			withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
				d, _ := Open(p, "sales", vol, Config{})
				keys, vals := txnShape(shape.rows, shape.vlen)
				want := map[uint64][]byte{}
				fill := func(tx *Txn) {
					buf := make([]byte, shape.vlen) // one buffer reused for every Put
					for i, k := range keys {
						copy(buf, vals[i])
						if err := tx.Put(k, buf); err != nil {
							t.Fatal(err)
						}
						clear(buf)
						want[k] = vals[i]
					}
				}
				check := func(stage string, get func(uint64) ([]byte, bool, error), present bool) {
					t.Helper()
					for k, v := range want {
						got, ok, err := get(k)
						if err != nil || ok != present || (present && !bytes.Equal(got, v)) {
							t.Fatalf("%s: key %d = %x, %v, %v; want %x, present %v", stage, k, got, ok, err, v, present)
						}
					}
				}

				writes := vol.Writes()
				dropped := d.Begin()
				fill(dropped)
				if vol.Writes() != writes {
					t.Fatalf("an uncommitted transaction wrote %d blocks", vol.Writes()-writes)
				}
				check("uncommitted", func(k uint64) ([]byte, bool, error) { return d.Get(p, k) }, false)

				tx := d.Begin()
				fill(tx)
				if err := tx.Commit(p); err != nil {
					t.Fatal(err)
				}
				check("after commit", func(k uint64) ([]byte, bool, error) { return d.Get(p, k) }, true)

				re, err := Open(p, "sales", vol, Config{}) // crash: the rows are only in the WAL
				if err != nil {
					t.Fatal(err)
				}
				if re.RecoveredTxns() != 1 || !re.HasCommitted(tx.id) || re.HasCommitted(dropped.id) {
					t.Fatalf("recovered %d transactions (committed %v, dropped %v)",
						re.RecoveredTxns(), re.HasCommitted(tx.id), re.HasCommitted(dropped.id))
				}
				check("after recovery", func(k uint64) ([]byte, bool, error) { return re.Get(p, k) }, true)
			})
		})
	}
}
