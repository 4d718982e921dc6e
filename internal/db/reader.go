package db

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// BlockReader is the read-only volume interface. storage.Snapshot satisfies
// it, which is how the data-analytics application (§IV-D) opens the databases
// living on snapshot volumes without mutating them. A block read is borrowed:
// nil for a never-written (all-zero) block, else possibly the reader's own
// storage — never modified; copy it to write (the replay and
// DB.writablePage do). ReadRange (count
// consecutive blocks: Scan's preload of the data region) and ReadBlocks (the
// blocks a vector names: the replay's log chunks, the pages the redo touches)
// are one request and one scheduler step each, borrowed block by block exactly
// as Read is; the array serves a request as wide as it has free slots. A
// range none of whose blocks was written is nil as a whole, charged as any
// range of its width.
type BlockReader interface {
	Read(p *sim.Proc, block int64) ([]byte, error)
	ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error)
	ReadBlocks(p *sim.Proc, ios []storage.BlockIO) error
	SizeBlocks() int64
	BlockSize() int
}

// reader is the read half of a database, all that Open and OpenView share: the
// volume layout, the superblock check, the replay of the WAL's valid prefix,
// and the page lookup behind Get and Scan. A View is a reader and a replay
// timer; a DB is a reader plus what writes.
//
// Pages are cached by absolute block index in one table and copied on first
// write. A clean page is borrowed: the slice the volume holds (nil = never
// written), never written into. An owned page is a copy the replay took or, on
// a DB, a room its commits carved (DB.writablePage) — the only pages upserted
// into — until DB.Checkpoint hands it to the volume and it stays, clean, where
// it sits; nothing else leaves a reader. Caching a clean page never replaces an
// owned one (loadPage). The reader itself only reads: what commits write with
// lives on the DB, so a View carries none of it.
type reader struct {
	name string
	img  BlockReader
	cfg  Config

	blockSize int
	walBase   int64 // first WAL block
	dataBase  int64 // first data page block
	dataPages int64

	epoch    uint32 // log epoch: the superblock's, which Checkpoint bumps
	nextTxID uint64

	pages     map[int64]page // the page table: made on first use, by the replay at its exact size
	region    [][]byte       // clean pages of the whole data region once Scan preloaded it; nil while none was written
	preloaded bool           // Scan has preloaded the region: a block the table lacks is region's

	// vec is the one I/O vector: the replay's log chunks, its scatter read and
	// Checkpoint's gather write fill it in turn, so it grows only past the
	// largest of them. It starts at the log's first two chunks and reaches the
	// log region's size only for a log that outgrows them.
	vec []storage.BlockIO

	committed []uint64 // IDs known committed, ascending and distinct
	recovered int
	torn      bool

	logRead, pageRead time.Duration // the replay's two reads, in simulated time
	logLive, logReads int           // WAL blocks the replay found live, and read to find them
}

// page is one entry of the page table: the page's bytes, and whether they are
// the reader's own copy (upserted into, flushed by the next checkpoint) or the
// volume's, borrowed.
type page struct {
	data  []byte
	owned bool
}

// open lays the database out on vol and checks its superblock; it writes
// nothing. A block 0 never written, or all zero, is an unformatted volume:
// ErrNotFormatted, which Open answers by formatting and OpenView passes on. Any
// other block 0 that does not decode is damage and fails closed — formatting
// over it would report an empty database where there was one.
func (r *reader) open(p *sim.Proc, name string, vol BlockReader, cfg Config) error {
	cfg = cfg.withDefaults()
	*r = reader{
		name:      name,
		img:       vol,
		cfg:       cfg,
		blockSize: vol.BlockSize(),
		walBase:   1,
		dataBase:  int64(1 + cfg.WALBlocks),
		dataPages: vol.SizeBlocks() - int64(1+cfg.WALBlocks),
		epoch:     1,
		nextTxID:  1,
	}
	if r.dataPages <= 0 {
		return fmt.Errorf("%w: %d blocks with %d WAL blocks", ErrVolumeTooSmall, vol.SizeBlocks(), cfg.WALBlocks)
	}
	sb, err := vol.Read(p, 0)
	if err != nil {
		return err
	}
	meta, ok := decodeSuperblock(sb)
	switch {
	case ok:
	case len(bytes.TrimLeft(sb, "\x00")) == 0:
		return ErrNotFormatted // bare: every fresh Open takes this path and discards it
	default:
		return fmt.Errorf("%w: %s", ErrCorruptSuperblock, name)
	}
	if meta.walBlocks != uint32(cfg.WALBlocks) {
		return fmt.Errorf("db: %s: WAL size mismatch: on-disk %d, config %d", name, meta.walBlocks, cfg.WALBlocks)
	}
	r.epoch, r.nextTxID = meta.epoch, meta.nextTxID
	return nil
}

// replay redoes the WAL's valid prefix in memory: transactions with a commit
// record in the prefix are applied in log order to owned copies of their
// pages, everything else is discarded. It issues two reads — the log until it
// ends, then every page the redo will touch as one sorted scatter — so the
// redo itself runs with every page present and takes no simulated time.
//
// The owned copies share one array, sized once: each page is a capped slice of
// it with room for its stored prefix and one more slot per committed update to
// it (at most a block), so the redo never outgrows it. The committed set and
// the page table are made once too, at the sizes the log gives them.
func (r *reader) replay(p *sim.Proc) error {
	start := p.Now()
	recs, err := r.readLog(p)
	if err != nil && !errors.Is(err, wal.ErrCorrupt) {
		return err
	}
	r.logRead = p.Now() - start
	r.torn = err != nil
	// Analysis: find transactions whose commit record survived.
	commits, updates := 0, 0
	for _, rec := range recs {
		switch rec.Type {
		case wal.TypeCommit:
			commits++
		case wal.TypeUpdate:
			updates++
		}
		if rec.TxID >= r.nextTxID {
			r.nextTxID = rec.TxID + 1
		}
	}
	r.committed = make([]uint64, 0, commits)
	for _, rec := range recs {
		if rec.Type == wal.TypeCommit {
			r.committed = append(r.committed, rec.TxID)
		}
	}
	slices.Sort(r.committed)
	r.committed = slices.Compact(r.committed)
	// Claim the home page of every committed update, sort the claims, and move
	// each page's first claim to the front: those are the pages, in block
	// order, and behind them the further claims, sorted again. The records
	// point into the log blocks themselves, not into the vector, so it is free
	// to reuse.
	r.vec = r.vecFor(updates)
	for _, rec := range recs {
		if rec.Type == wal.TypeUpdate && r.HasCommitted(rec.TxID) {
			r.vec = append(r.vec, storage.BlockIO{Block: r.pageBlock(rec.Key)})
		}
	}
	sortByBlock(r.vec)
	n := 0
	for i := range r.vec {
		if n == 0 || r.vec[i].Block != r.vec[n-1].Block {
			r.vec[n], r.vec[i] = r.vec[i], r.vec[n]
			n++
		}
	}
	pages, more := r.vec[:n], r.vec[n:]
	sortByBlock(more)
	start = p.Now()
	if err := r.img.ReadBlocks(p, pages); err != nil {
		return err
	}
	r.pageRead = p.Now() - start
	size := 0
	r.eachRoom(pages, more, func(_ storage.BlockIO, room int) { size += room })
	arr, off := make([]byte, size), 0
	if n > 0 {
		r.pages = make(map[int64]page, n)
	}
	r.eachRoom(pages, more, func(io storage.BlockIO, room int) {
		r.pages[io.Block] = page{data: append(arr[off:off:off+room], io.Data...), owned: true} // a never-written page (nil) is empty
		off += room
	})
	// Redo committed transactions' updates in log order.
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

// eachRoom calls fn with each page the replay read and the room its redo
// needs: its stored prefix plus one slot per committed update to it, at most a
// block. pages are the distinct claimed blocks and more the further claims,
// both in block order.
func (r *reader) eachRoom(pages, more []storage.BlockIO, fn func(io storage.BlockIO, room int)) {
	for _, io := range pages {
		claims := 1
		for ; len(more) > 0 && more[0].Block == io.Block; more = more[1:] {
			claims++
		}
		fn(io, min(len(io.Data)+claims*slotSize, r.blockSize))
	}
}

// readLog reads the WAL until the live log ends, not to the end of the region,
// and decodes it. It reads chunks that double from one block — 1, 2, 4, …,
// capped at what is left of the region — each one ReadBlocks of the I/O
// vector, and stops after the chunk that holds the first block that is not
// wal.LiveBlock: L live blocks cost at most min(2L+1, WALBlocks) reads, one
// for an empty log. The error is wal.ScanLog's over the blocks read.
//
// The vector starts with room for the first two chunks, which any non-empty
// log reads, and grows to the region once, only for a log that outgrows them.
func (r *reader) readLog(p *sim.Proc) ([]wal.Record, error) {
	r.vec = r.vecFor(min(3, r.cfg.WALBlocks))
	for chunk := 1; r.logLive == len(r.vec) && len(r.vec) < r.cfg.WALBlocks; chunk *= 2 {
		n := len(r.vec)
		chunk = min(chunk, r.cfg.WALBlocks-n)
		if cap(r.vec) < n+chunk { // past the first two chunks: room for the region, once
			r.vec = append(make([]storage.BlockIO, 0, r.cfg.WALBlocks), r.vec...)
		}
		for i := range chunk {
			r.vec = append(r.vec, storage.BlockIO{Block: r.walBase + int64(n+i)})
		}
		if err := r.img.ReadBlocks(p, r.vec[n:]); err != nil {
			return nil, err
		}
		for r.logLive < len(r.vec) && wal.LiveBlock(r.vec[r.logLive].Data, r.epoch, uint32(r.logLive)) {
			r.logLive++
		}
	}
	r.logReads = len(r.vec)
	return wal.ScanLog(r.logReads, func(i int) []byte { return r.vec[i].Data }, r.epoch)
}

// vecFor returns the I/O vector emptied, with room for n requests.
func (r *reader) vecFor(n int) []storage.BlockIO {
	if cap(r.vec) < n {
		r.vec = make([]storage.BlockIO, 0, n)
	}
	return r.vec[:0]
}

// sortByBlock puts a vector in ascending block order: the order the array is
// asked for pages in, and the order a checkpoint's pages are acked in.
func sortByBlock(ios []storage.BlockIO) {
	slices.SortFunc(ios, func(a, b storage.BlockIO) int { return cmp.Compare(a.Block, b.Block) })
}

// LogReadTime returns the simulated time the replay spent reading the WAL,
// and PageReadTime the time it spent reading the pages it redid into: the two
// reads that make up a replay (the redo itself is in memory).
func (r *reader) LogReadTime() time.Duration  { return r.logRead }
func (r *reader) PageReadTime() time.Duration { return r.pageRead }

// LogBlocks returns how much of the WAL region the replay read: the live log's
// blocks, and the blocks it read to find where the log ends.
func (r *reader) LogBlocks() (live, read int) { return r.logLive, r.logReads }

// Name returns the name the database was opened under.
func (r *reader) Name() string { return r.name }

// pageBlock maps a key to its home page's absolute block index.
func (r *reader) pageBlock(key uint64) int64 {
	return r.dataBase + int64(key%uint64(r.dataPages))
}

// cached returns the block's page as the reader holds it, and whether it
// does: the table's entry, else — once Scan preloaded the region — the
// region's clean page. A preloaded region that came back nil holds every page,
// none written.
func (r *reader) cached(block int64) (page, bool) {
	if pg, ok := r.pages[block]; ok || !r.preloaded {
		return pg, ok
	}
	if r.region == nil {
		return page{}, true
	}
	return page{data: r.region[block-r.dataBase]}, true
}

// loadPage returns the page for reading: the cached one, else the clean page
// read from the volume and cached as it is: borrowed, so nil for a
// never-written page (which holds no rows and has every slot free) and never
// to be written into. The read yields, and a commit may have cached or written
// the page meanwhile: the table is looked up again before the read is cached,
// so a clean page never replaces an owned one.
func (r *reader) loadPage(p *sim.Proc, block int64) ([]byte, error) {
	if pg, ok := r.cached(block); ok {
		return pg.data, nil
	}
	data, err := r.img.Read(p, block)
	if err != nil {
		return nil, err
	}
	if pg, ok := r.cached(block); ok {
		return pg.data, nil
	}
	r.keep(block, page{data: data})
	return data, nil
}

// keep stores pg as the block's table entry, making the table on first use
// where the replay did not: a reader that only scans never makes one.
func (r *reader) keep(block int64, pg page) {
	if r.pages == nil {
		r.pages = make(map[int64]page)
	}
	r.pages[block] = pg
}

// Get returns the value for key and whether it exists. The value is lent, not
// copied: the row's bytes in the page that holds it, capped at their length so
// an append copies. Never modify it. It is valid until the next Commit on the
// database, which rewrites an owned page's slot in place; a value lent from a
// clean page (the volume's own slice), from a room its page has since moved
// out of (no room is carved twice) or from a View never changes. Clone it to
// keep it longer.
func (r *reader) Get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	if key == 0 {
		return nil, false, ErrZeroKey
	}
	page, err := r.loadPage(p, r.pageBlock(key))
	if err != nil {
		return nil, false, err
	}
	row, ok := pageLookup(page, key) // the zero Row, with no Val, when absent
	return row.Val, ok, nil
}

// Scan visits every row in page order; fn returning false stops the scan. A
// Row's Val is only valid during the callback: it points into the page.
//
// A scan is sequential by nature, so the first one preloads the data region
// with one fused range read instead of one random read per page, and keeps the
// sparse borrowed range as the clean cache (nil while no page was written).
// The preload rule is "not preloaded yet", whatever pages Get cached singly
// before — every one of them, even.
func (r *reader) Scan(p *sim.Proc, fn func(Row) bool) error {
	if !r.preloaded {
		region, err := r.img.ReadRange(p, r.dataBase, int(r.dataPages))
		if err != nil {
			return err
		}
		r.region, r.preloaded = region, true
	}
	for b := r.dataBase; b < r.dataBase+r.dataPages; b++ {
		page, _ := r.loadPage(p, b) // preloaded: reads nothing, cannot fail
		if !pageEach(page, fn) {
			return nil
		}
	}
	return nil
}

// CommittedTxns returns the IDs of every transaction known committed (from
// the replay, plus a DB's own since), sorted ascending: a copy of the set,
// which the caller may keep and modify. The consistency verifier compares
// these sets across databases.
func (r *reader) CommittedTxns() []uint64 {
	return append(make([]uint64, 0, len(r.committed)), r.committed...)
}

// HasCommitted reports whether the transaction ID is known committed.
func (r *reader) HasCommitted(txid uint64) bool {
	_, ok := slices.BinarySearch(r.committed, txid)
	return ok
}

// RecoveredTxns returns how many committed transactions the replay redid.
func (r *reader) RecoveredTxns() int { return r.recovered }

// SawTornTail reports whether the replay hit a torn record at the end of the
// WAL prefix (normal after a mid-write crash; the prefix before the tear was
// replayed).
func (r *reader) SawTornTail() bool { return r.torn }

// Superblock layout: magic(4) + version(2) + epoch(4) + walBlocks(4) +
// nextTxID(8) + crc(4).
const (
	sbMagic   = 0x5A42_4442 // "ZBDB"
	sbVersion = 1
	sbSize    = 4 + 2 + 4 + 4 + 8 + 4
)

type superblock struct {
	epoch     uint32
	walBlocks uint32
	nextTxID  uint64
}

func decodeSuperblock(blk []byte) (superblock, bool) {
	if len(blk) < sbSize {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(blk[0:4]) != sbMagic {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(blk[22:26]) != crc32.ChecksumIEEE(blk[0:22]) {
		return superblock{}, false
	}
	return superblock{
		epoch:     binary.LittleEndian.Uint32(blk[6:10]),
		walBlocks: binary.LittleEndian.Uint32(blk[10:14]),
		nextTxID:  binary.LittleEndian.Uint64(blk[14:22]),
	}, true
}
