package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// modelReplay is the replay as a record list: the valid prefix decoded into
// one []wal.Record, block by block with wal.ScanBlock, and a claim per
// committed update sorted by block, its first claim per page moved to the
// front. It is what reader.replay must equal, read for read and byte for byte
// (TestReplayMatchesRecordListModel).
func (r *reader) modelReplay(p *sim.Proc) error {
	start := p.Now()
	log, err := r.readLog(p)
	if err != nil {
		return err
	}
	var recs []wal.Record
	for i, io := range log {
		blk, ok, serr := wal.ScanBlock(io.Data, r.epoch, uint32(i))
		if !ok {
			break
		}
		if recs, err = append(recs, blk...), serr; err != nil {
			break
		}
	}
	r.logRead = p.Now() - start
	r.torn = err != nil
	updates := 0
	for _, rec := range recs {
		switch rec.Type {
		case wal.TypeCommit:
			r.committed = append(r.committed, rec.TxID)
		case wal.TypeUpdate:
			updates++
		}
		if rec.TxID >= r.nextTxID {
			r.nextTxID = rec.TxID + 1
		}
	}
	slices.Sort(r.committed)
	r.committed = slices.Compact(r.committed)
	claims := make([]storage.BlockIO, 0, updates)
	for _, rec := range recs {
		if rec.Type == wal.TypeUpdate && r.HasCommitted(rec.TxID) {
			claims = append(claims, storage.BlockIO{Block: r.pageBlock(rec.Key)})
		}
	}
	sortByBlock(claims)
	n := 0
	for i := range claims {
		if n == 0 || claims[i].Block != claims[n-1].Block {
			claims[n], claims[i] = claims[i], claims[n]
			n++
		}
	}
	pages, more := claims[:n], claims[n:]
	sortByBlock(more)
	start = p.Now()
	if err := r.img.ReadBlocks(p, pages); err != nil {
		return err
	}
	r.pageRead = p.Now() - start
	r.pages = map[int64]page{}
	for _, io := range pages {
		c := 1
		for ; len(more) > 0 && more[0].Block == io.Block; more = more[1:] {
			c++
		}
		room := min(len(io.Data)+c*slotSize, r.blockSize)
		r.pages[io.Block] = page{data: append(make([]byte, 0, room), io.Data...), owned: true}
	}
	for _, rec := range recs {
		if rec.Type != wal.TypeUpdate || !r.HasCommitted(rec.TxID) {
			continue
		}
		block := r.pageBlock(rec.Key)
		pg, err := pageUpsert(r.pages[block].data, Row{Key: rec.Key, TxID: rec.TxID, Val: rec.Val}, r.blockSize)
		if err != nil {
			return fmt.Errorf("db: %s: redo tx %d: %w", r.name, rec.TxID, err)
		}
		r.pages[block] = page{data: pg, owned: true}
	}
	r.recovered = len(r.committed)
	return nil
}

// vectorLog is a BlockReader that records the blocks of every ReadBlocks, in
// the order each vector names them.
type vectorLog struct {
	BlockReader
	vectors [][]int64
}

func (v *vectorLog) ReadBlocks(p *sim.Proc, ios []storage.BlockIO) error {
	blocks := make([]int64, len(ios))
	for i, io := range ios {
		blocks[i] = io.Block
	}
	v.vectors = append(v.vectors, blocks)
	return v.BlockReader.ReadBlocks(p, ios)
}

// logShape picks what a random log holds besides interleaved transactions.
type logShape struct {
	empty     bool // no record at the live epoch
	long      bool // more blocks than the log read's first two chunks
	torn      bool // the last record is torn
	staleMid  bool // a stale-epoch record ends a block, and a live block follows
	fillPage  bool // one transaction fills a page to its block
	preloaded bool // pages checkpointed before the log: the redo extends stored prefixes
}

// Keys of the random logs: committed transactions update the first
// committedPages data pages, never-committed ones the next uncommittedPages,
// each page through at most its slots' worth of keys, so no page overflows.
const committedPages, uncommittedPages = 12, 12

// pageKey is the j-th key whose home page is data page q (q ≥ 1).
func pageKey(dataPages int64, q, j int) uint64 { return uint64(int64(q) + int64(j)*dataPages) }

// randomLogImage builds a formatted 256-block volume whose WAL, at epoch 2,
// holds a random log of the given shape; records are packed as the database
// packs them, each block stored whole or as its prefix.
func randomLogImage(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, rng *rand.Rand, sh logShape) *storage.Volume {
	vol, err := a.CreateVolume(id, 256)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := Open(p, string(id), vol, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	bs, slots := vol.BlockSize(), slotsPerPage(vol.BlockSize())
	val := func() []byte {
		v := make([]byte, rng.Intn(MaxValLen+1))
		rng.Read(v)
		return v
	}
	if sh.preloaded {
		for i := 0; i < 6; i++ {
			tx := d.Begin()
			tx.Put(pageKey(d.dataPages, 1+rng.Intn(committedPages), rng.Intn(slots)), val())
			if err := tx.Commit(p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := d.Checkpoint(p); err != nil { // epoch 2: what epoch 1 left in the WAL is stale
		tb.Fatal(err)
	}
	epoch := d.epoch
	next := d.nextTxID + uint64(rng.Intn(3))

	var recs []wal.Record
	if sh.fillPage {
		next++
		for j := range slots {
			recs = append(recs, wal.Record{Type: wal.TypeUpdate, TxID: next, Key: pageKey(d.dataPages, 1, j), Val: val()})
		}
		recs = append(recs, wal.Record{Type: wal.TypeCommit, TxID: next})
	}
	type openTxn struct {
		id     uint64
		commit bool
	}
	var open []openTxn
	want := 4 + rng.Intn(40)
	if sh.long {
		want = 12 * (bs / 128)
	}
	for len(recs) < want {
		switch k := rng.Intn(10); {
		case k < 2 || len(open) == 0:
			next++
			open = append(open, openTxn{id: next, commit: rng.Intn(4) > 0})
		case k < 8:
			t := open[rng.Intn(len(open))]
			q := 1 + rng.Intn(committedPages)
			if !t.commit {
				q = 1 + committedPages + rng.Intn(uncommittedPages)
			}
			j := rng.Intn(slots)
			if rng.Intn(3) == 0 {
				j = 0 // the same key again
			}
			recs = append(recs, wal.Record{Type: wal.TypeUpdate, TxID: t.id, Key: pageKey(d.dataPages, q, j), Val: val()})
		default:
			i := rng.Intn(len(open))
			if t := open[i]; t.commit {
				recs = append(recs, wal.Record{Type: wal.TypeCommit, TxID: t.id})
				open = slices.Delete(open, i, i+1)
			}
		}
	}
	if sh.empty {
		recs = nil
	}

	// Pack the records, never spanning blocks; a stale-epoch record may end a
	// block early, and the record it stood before starts the next.
	var blocks [][]byte
	newBlock := func() {
		blk := make([]byte, wal.BlockHeaderSize, bs)
		wal.PutBlockHeader(blk, epoch, uint32(len(blocks)))
		blocks = append(blocks, blk)
	}
	add := func(rec wal.Record) {
		if len(blocks) == 0 || len(blocks[len(blocks)-1])+rec.EncodedSize() > bs {
			newBlock()
		}
		blocks[len(blocks)-1] = wal.AppendEncode(blocks[len(blocks)-1], rec)
	}
	staleAt := -1
	if sh.staleMid && len(recs) > 2 {
		staleAt = 1 + rng.Intn(len(recs)-2)
	}
	for i, rec := range recs {
		if i == staleAt {
			add(wal.Record{Type: wal.TypeCommit, Epoch: epoch - 1, TxID: 999_999})
			newBlock()
		}
		rec.Epoch = epoch
		add(rec)
	}
	if sh.torn && len(blocks) > 0 {
		last := blocks[len(blocks)-1]
		if rng.Intn(2) == 0 {
			last[len(last)-1] ^= 0xFF // the checksum fails
		} else { // a short write
			n := len(last) - 1 - rng.Intn(wal.Overhead)
			clear(last[n:])
			blocks[len(blocks)-1] = last[:n]
		}
	}
	for i, b := range blocks {
		if rng.Intn(2) == 0 {
			b = b[:bs] // the whole block, zeroes behind the records
		}
		if err := vol.Poke(d.walBase+int64(i), b); err != nil {
			tb.Fatal(err)
		}
	}
	if len(blocks) > d.cfg.WALBlocks-1 {
		tb.Fatalf("a random log of %d blocks overran the %d-block region", len(blocks), d.cfg.WALBlocks)
	}
	return vol
}

// reader.replay walks the log in place and counts claims per page; the model
// lists the records and sorts a claim per committed update. On random logs —
// torn tails, stale-epoch records mid-block, never-committed updates to pages
// no committed one touches, repeated keys, a page filled to its block, empty
// logs and logs past two chunks, on 512-byte and 4 KiB blocks — both reach the
// same committed set, next ID, torn flag and page table (bytes, ownership, the
// same room and none past a block), through the same vectors of the same blocks in the same
// order and the same simulated read times.
func TestReplayMatchesRecordListModel(t *testing.T) {
	shapes := []logShape{
		{empty: true}, {empty: true, preloaded: true},
		{}, {preloaded: true}, {torn: true}, {staleMid: true}, {fillPage: true},
		{long: true}, {long: true, torn: true, staleMid: true, preloaded: true},
		{long: true, fillPage: true}, {torn: true, staleMid: true, fillPage: true, preloaded: true},
	}
	for _, bs := range []int{512, 4096} {
		inProcessOn(storage.Config{BlockSize: bs}, func(p *sim.Proc, a *storage.Array) {
			rng := rand.New(rand.NewSource(int64(bs)))
			filled, longLogs, torn := 0, 0, 0
			for i := range 40 * len(shapes) {
				sh := shapes[i%len(shapes)]
				vol := randomLogImage(t, p, a, storage.VolumeID(fmt.Sprint("log", i)), rng, sh)
				name := fmt.Sprintf("%d-byte blocks, log %d %+v", bs, i, sh)
				var got, want reader
				gotIO, wantIO := &vectorLog{BlockReader: vol}, &vectorLog{BlockReader: vol}
				if err := got.open(p, name, gotIO, Config{}); err != nil {
					t.Fatal(err)
				}
				if err := want.open(p, name, wantIO, Config{}); err != nil {
					t.Fatal(err)
				}
				if err := got.replay(p); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := want.modelReplay(p); err != nil {
					t.Fatalf("%s: model: %v", name, err)
				}
				sameReplay(t, name, &got, &want, gotIO.vectors, wantIO.vectors)
				for b, pg := range got.pages {
					if len(pg.data) == bs {
						filled++
					}
					if q := b - got.dataBase; q > committedPages {
						t.Fatalf("%s: the redo read data page %d, which only never-committed updates touch", name, q)
					}
				}
				if live, _ := got.LogBlocks(); live > 3 {
					longLogs++
				}
				if got.torn {
					torn++
				}
			}
			if filled == 0 || longLogs == 0 || torn == 0 {
				t.Fatalf("%d-byte blocks: %d pages filled to the block, %d logs past two chunks, %d torn; want each > 0", bs, filled, longLogs, torn)
			}
		})
	}
}

// sameReplay fails t where two replays of one image differ.
func sameReplay(t *testing.T, name string, got, want *reader, gotIO, wantIO [][]int64) {
	t.Helper()
	if !slices.Equal(got.committed, want.committed) || got.nextTxID != want.nextTxID ||
		got.SawTornTail() != want.SawTornTail() || got.RecoveredTxns() != want.RecoveredTxns() {
		t.Fatalf("%s: committed %v next %d torn %v recovered %d; model %v next %d torn %v recovered %d", name,
			got.committed, got.nextTxID, got.SawTornTail(), got.RecoveredTxns(),
			want.committed, want.nextTxID, want.SawTornTail(), want.RecoveredTxns())
	}
	if !slices.EqualFunc(gotIO, wantIO, slices.Equal) {
		t.Fatalf("%s: read vectors %v; model %v", name, gotIO, wantIO)
	}
	if got.LogReadTime() != want.LogReadTime() || got.PageReadTime() != want.PageReadTime() || got.logLive != want.logLive || got.logReads != want.logReads {
		t.Fatalf("%s: log %v page %v, %d live of %d read; model %v %v, %d of %d", name,
			got.LogReadTime(), got.PageReadTime(), got.logLive, got.logReads,
			want.LogReadTime(), want.PageReadTime(), want.logLive, want.logReads)
	}
	if len(got.pages) != len(want.pages) {
		t.Fatalf("%s: %d pages in the table; model %d", name, len(got.pages), len(want.pages))
	}
	for b, w := range want.pages {
		g, ok := got.pages[b]
		if !ok || g.owned != w.owned || !bytes.Equal(g.data, w.data) || cap(g.data) != cap(w.data) || cap(g.data) > got.blockSize {
			t.Fatalf("%s: page %d: present %v, owned %v, %d bytes in room %d; model owned %v, %d bytes in room %d (equal %v)", name, b,
				ok, g.owned, len(g.data), cap(g.data), w.owned, len(w.data), cap(w.data), bytes.Equal(g.data, w.data))
		}
	}
}

// BenchmarkReplay: one op replays two databases whose rows are all in their
// WALs, by OpenView, the reader a failover's Open runs too. shop is
// shop_adc's failover: 4,000 orders' sales (one row each) and stock (two lines
// each, of 100 Zipf-skewed items) on 4 KiB blocks, 2,048-block volumes and a
// 256-block WAL. fleet is one fleet tenant's 8 orders on 512-byte blocks and
// 256-block volumes with the default 64-block WAL.
func BenchmarkReplay(b *testing.B) {
	for _, c := range []struct {
		name      string
		blockSize int
		blocks    int64
		cfg       Config
		orders    int
	}{
		{"shop", 4096, 2048, Config{WALBlocks: 256}, 4000},
		{"fleet", 512, 256, Config{}, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			inProcessOn(storage.Config{BlockSize: c.blockSize}, func(p *sim.Proc, a *storage.Array) {
				images := shopImages(b, p, a, c.blocks, c.cfg, c.orders)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					for _, img := range images {
						v, err := OpenView(p, "replay", img, c.cfg)
						if err != nil || v.RecoveredTxns() != c.orders {
							b.Fatalf("replayed %d of %d orders: %v", v.RecoveredTxns(), c.orders, err)
						}
					}
				}
			})
		})
	}
}

// shopImages commits `orders` orders as the shop places them — a sales row
// keyed by the order, then a stock transaction of the same ID updating two
// Zipf-skewed items — to fresh sales and stock volumes, and returns them as a
// crash leaves them: every row only in the WAL.
func shopImages(tb testing.TB, p *sim.Proc, a *storage.Array, blocks int64, cfg Config, orders int) [2]*storage.Volume {
	var images [2]*storage.Volume
	var dbs [2]*DB
	for i, id := range []storage.VolumeID{"sales", "stock"} {
		vol, err := a.CreateVolume(id, blocks)
		if err != nil {
			tb.Fatal(err)
		}
		if dbs[i], err = Open(p, string(id), vol, cfg); err != nil {
			tb.Fatal(err)
		}
		images[i] = vol
	}
	items := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 99)
	for txid := uint64(1); txid <= uint64(orders); txid++ {
		sales := dbs[0].BeginWithID(txid)
		sales.Put(txid, make([]byte, 16))
		stock := dbs[1].BeginWithID(txid)
		stock.Put(items.Uint64()+1, make([]byte, 16))
		stock.Put(items.Uint64()+1, make([]byte, 16))
		for _, tx := range []*Txn{sales, stock} {
			if err := tx.Commit(p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, d := range dbs {
		if d.Checkpoints() != 0 {
			tb.Fatalf("%s: %d orders forced a checkpoint; the image must hold them in the WAL", d.Name(), orders)
		}
	}
	return images
}
