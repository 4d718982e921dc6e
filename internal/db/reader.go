package db

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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
// and the page lookup behind Get and Scan. A View is a reader; a DB is a
// reader plus what writes.
//
// Pages are cached by absolute block index in one table (pageTable) and copied
// on first write. A clean page is borrowed: the slice the volume holds (nil =
// never written), never written into. An owned page is a copy the redo took
// or, on a DB, a room its commits carved (DB.writablePage) — the only pages
// upserted into — until DB.Checkpoint hands it to the volume and it stays,
// clean, where it sits; nothing else leaves a reader. Caching a clean page never replaces an
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

	epoch     uint32 // log epoch: the superblock's, which Checkpoint bumps
	torn      bool   // the replay hit a torn record at the end of the WAL prefix
	preloaded bool   // Scan has preloaded the region: a block the table lacks is region's
	nextTxID  uint64

	pages  pageTable // made on first use, by the redo at its exact size
	region [][]byte  // clean pages of the whole data region once Scan preloaded it; nil while none was written

	// vec is the one I/O vector: the replay's log chunks, its scatter read and
	// Checkpoint's gather write fill it in turn, so it grows only past the
	// largest of them. It starts at the log's first two chunks and reaches the
	// log region's size only for a log that outgrows them. The scatter takes
	// the room behind the log's blocks, which its redo still walks, and gets a
	// vector of its own only where that room is short.
	vec []storage.BlockIO

	committed []uint64 // IDs known committed, ascending and distinct
	recovered int

	// pending is a View's redo, which its first read runs (View.replayed);
	// nil on a DB, which redoes at open.
	pending *redoLog

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

// pageTable maps a block to its page: one slice of slots, a power of two long,
// probed linearly from the block's own index, so a run of consecutive pages
// takes a run of slots. A page found is written where it sits, so overwriting
// one (a commit's, the redo's, a checkpoint's) never allocates; only an insert
// into a full table does, once per doubling. A table of 8 slots fills to the
// last, as a Go map's one group does; a longer one fills to 7/8. Block 0 is
// the superblock, never a page, so a slot holding block 0 is free.
type pageTable struct {
	slots []tableSlot
	n     int // pages held
}

type tableSlot struct {
	block int64
	page
}

// tableFits returns how many pages a table of size slots holds.
func tableFits(size int) int {
	if size <= 8 {
		return size
	}
	return size - size/8
}

// makePageTable returns an empty table that holds n pages without growing:
// 8 slots, or the least power of two past that which fits n.
func makePageTable(n int) pageTable {
	size := 8
	for tableFits(size) < n {
		size *= 2
	}
	return pageTable{slots: make([]tableSlot, size)}
}

// find returns the slot holding block and true, else the free slot it would
// take and false (-1 when the table is full).
func (t *pageTable) find(block int64) (int, bool) {
	mask := len(t.slots) - 1
	for i, probes := int(block)&mask, 0; probes < len(t.slots); i, probes = (i+1)&mask, probes+1 {
		switch t.slots[i].block {
		case block:
			return i, true
		case 0:
			return i, false
		}
	}
	return -1, false
}

func (t *pageTable) get(block int64) (page, bool) {
	i, ok := t.find(block)
	if !ok {
		return page{}, false
	}
	return t.slots[i].page, true
}

// set stores pg as block's page: in its slot when the table holds it, else in
// a free one, doubling the table first when it is full.
func (t *pageTable) set(block int64, pg page) {
	i, ok := t.find(block)
	if !ok {
		if t.n >= tableFits(len(t.slots)) {
			old := t.slots
			*t = makePageTable(t.n + 1)
			for _, s := range old {
				if s.block != 0 {
					t.set(s.block, s.page)
				}
			}
			i, _ = t.find(block)
		}
		t.slots[i].block = block
		t.n++
	}
	t.slots[i].page = pg
}

// all yields every block the table holds with its page, in slot order.
func (t *pageTable) all(yield func(int64, page) bool) {
	for _, s := range t.slots {
		if s.block != 0 && !yield(s.block, s.page) {
			return
		}
	}
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

// redoLog is what the redo of a replayed log needs: the log's blocks, its
// valid prefix's record count and each data page's claim count. The claimed
// pages are the reader's vector, which nothing refills before the redo.
type redoLog struct {
	blocks  []storage.BlockIO
	records int
	claims  []uint8
}

// replay reads what the redo of the WAL's valid prefix needs and finds which
// transactions committed: those with a commit record in the prefix, whose
// updates the redo applies in log order to owned copies of their pages;
// everything else is discarded. It issues both of recovery's reads — the log
// until it ends, then every page the redo will touch as one scatter in block
// order — so the redo runs with every page present and takes no simulated
// time, whenever it runs: Open runs it at once, a View at its first Get or
// Scan.
//
// The records stay where they lie: wal.ValidPrefix checks the log blocks once
// and counts the prefix's records, and the analysis, the claims and the redo
// each wal.Walk it again in place. A claim is counted on its page, not listed.
// The committed set is made once, at the size the log gives it. A log with no
// committed update makes no claim count.
func (r *reader) replay(p *sim.Proc) (redoLog, error) {
	start := p.Now()
	log, err := r.readLog(p)
	if err != nil {
		return redoLog{}, err
	}
	r.logRead = p.Now() - start
	block := func(i int) []byte { return log[i].Data }
	count, err := wal.ValidPrefix(len(log), block, r.epoch)
	r.torn = err != nil
	walk := func(yield func(wal.Record) bool) { wal.Walk(count, block, r.epoch, yield) }
	// Analysis: find transactions whose commit record survived.
	commits := 0
	walk(func(rec wal.Record) bool {
		if rec.Type == wal.TypeCommit {
			commits++
		}
		if rec.TxID >= r.nextTxID {
			r.nextTxID = rec.TxID + 1
		}
		return true
	})
	r.committed = make([]uint64, 0, commits)
	walk(func(rec wal.Record) bool {
		if rec.Type == wal.TypeCommit {
			r.committed = append(r.committed, rec.TxID)
		}
		return true
	})
	slices.Sort(r.committed)
	r.committed = slices.Compact(r.committed)
	// Count the committed updates' claims on each data page, up to where the
	// room stops growing: at a block's slots it is the block, whatever the
	// page's prefix. (Past 255 slots, blocks over 32 KiB, a redo outgrowing
	// its room copies as a commit's upsert does.)
	var claims []uint8
	most, n := uint8(min((r.blockSize+slotSize-1)/slotSize, math.MaxUint8)), 0
	committed := commitCursor{set: r.committed}
	walk(func(rec wal.Record) bool {
		if rec.Type == wal.TypeUpdate && committed.has(rec.TxID) {
			if claims == nil {
				claims = make([]uint8, r.dataPages)
			}
			c := &claims[r.pageBlock(rec.Key)-r.dataBase]
			if *c == 0 {
				n++
			}
			if *c < most {
				*c++
			}
		}
		return true
	})
	// The claimed pages, in block order, go in the vector behind the log's
	// blocks, which the redo still walks, or in a vector of their own where
	// there is no room behind them.
	if r.vec = r.vec[len(log):len(log)]; cap(r.vec) < n {
		r.vec = make([]storage.BlockIO, 0, n)
	}
	for i, c := range claims {
		if c > 0 {
			r.vec = append(r.vec, storage.BlockIO{Block: r.dataBase + int64(i)})
		}
	}
	start = p.Now()
	if err := r.img.ReadBlocks(p, r.vec); err != nil {
		return redoLog{}, err
	}
	r.pageRead = p.Now() - start
	r.recovered = len(r.committed)
	return redoLog{blocks: log, records: count, claims: claims}, nil
}

// redo applies the committed updates of the replayed log, in log order, to
// owned copies of the pages the replay read. The copies share one array,
// sized once, each page a capped slice of it with room for its stored prefix
// and one more slot per committed update to it (at most a block), so the redo
// never outgrows it; the page table is made once too, at the pages' count. A
// log with no committed update makes neither.
func (r *reader) redo(rl redoLog) error {
	room := func(io storage.BlockIO) int {
		return min(len(io.Data)+int(rl.claims[io.Block-r.dataBase])*slotSize, r.blockSize)
	}
	size := 0
	for _, io := range r.vec {
		size += room(io)
	}
	arr, off := make([]byte, size), 0
	if len(r.vec) > 0 {
		r.pages = makePageTable(len(r.vec))
	}
	for _, io := range r.vec {
		rm := room(io)
		r.pages.set(io.Block, page{data: append(arr[off:off:off+rm], io.Data...), owned: true}) // a never-written page (nil) is empty
		off += rm
	}
	var redoErr error
	committed := commitCursor{set: r.committed}
	wal.Walk(rl.records, func(i int) []byte { return rl.blocks[i].Data }, r.epoch, func(rec wal.Record) bool {
		if rec.Type != wal.TypeUpdate || !committed.has(rec.TxID) {
			return true
		}
		home := r.pageBlock(rec.Key)
		pg, _ := r.pages.get(home)
		data, err := pageUpsert(pg.data, Row{Key: rec.Key, TxID: rec.TxID, Val: rec.Val}, r.blockSize)
		if err != nil {
			redoErr = fmt.Errorf("db: %s: redo tx %d: %w", r.name, rec.TxID, err)
			return false
		}
		r.pages.set(home, page{data: data, owned: true})
		return true
	})
	return redoErr
}

// redone runs a View's pending redo, at its first read, and returns the redo's
// error; a redo that failed stays pending, so every later read runs it again
// and fails alike. On a DB, which redoes at open, nothing is pending.
func (r *reader) redone() error {
	if r.pending == nil {
		return nil
	}
	if err := r.redo(*r.pending); err != nil {
		return err
	}
	*r.pending, r.pending = redoLog{}, nil
	return nil
}

// readLog reads the WAL until the live log ends, not to the end of the region,
// and returns the blocks it read, in region order: the front of the I/O vector.
// It reads chunks that double from one block — 1, 2, 4, …, capped at what is
// left of the region — each one ReadBlocks of the vector, and stops after the
// chunk that holds the first block that is not wal.LiveBlock: L live blocks
// cost at most min(2L+1, WALBlocks) reads, one for an empty log.
//
// The vector starts with room for the first two chunks, which any non-empty
// log reads, and grows to the region once, only for a log that outgrows them.
func (r *reader) readLog(p *sim.Proc) ([]storage.BlockIO, error) {
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
	return r.vec, nil
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
	if pg, ok := r.pages.get(block); ok || !r.preloaded {
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
	r.pages.set(block, page{data: data})
	return data, nil
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
	if err := r.redone(); err != nil {
		return nil, false, err
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
	if err := r.redone(); err != nil {
		return err
	}
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

// commitCursor looks IDs up in a sorted, distinct set for a caller that asks
// in about ascending order, as the log and the shop's IDs run: it looks where
// the last lookup ended, and at the next entry, before it searches the whole
// set.
type commitCursor struct {
	set []uint64
	at  int // where the last lookup ended
}

func (c *commitCursor) has(id uint64) bool {
	for i := c.at; i < len(c.set) && i <= c.at+1; i++ {
		if c.set[i] == id {
			c.at = i
			return true
		}
	}
	i, ok := slices.BinarySearch(c.set, id)
	c.at = i
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
	if binary.LittleEndian.Uint32(blk[22:26]) != wal.Checksum(blk[0:22]) {
		return superblock{}, false
	}
	return superblock{
		epoch:     binary.LittleEndian.Uint32(blk[6:10]),
		walBlocks: binary.LittleEndian.Uint32(blk[10:14]),
		nextTxID:  binary.LittleEndian.Uint64(blk[14:22]),
	}, true
}
