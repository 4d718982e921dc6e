// Package db is the transactional record store the demonstration's Oracle
// databases are substituted with. One DB instance lives on one storage
// volume (through the BlockWriter interface, so the same code runs
// unreplicated, under ADC, or under SDC).
//
// Durability protocol (redo-only, no-steal/no-force):
//
//   - updates buffer in the transaction until Commit;
//   - Commit writes the transaction's update records plus a commit record
//     to the WAL region and acknowledges after those block writes — commit
//     latency is therefore exactly the volume's write-ack latency, which is
//     what makes the SDC-vs-ADC slowdown measurable at the database level;
//   - data pages are updated in memory and flushed only at Checkpoint, so
//     pages on disk never contain uncommitted data (no undo needed);
//   - every open replays the WAL's valid prefix: transactions with a commit
//     record in the prefix are redone in log order, everything else is
//     discarded. Open checkpoints the result; OpenView keeps it in memory,
//     redone at the view's first read.
//
// Volume layout: block 0 superblock | blocks 1..WALBlocks WAL | data pages.
//
// The read half — layout, superblock check, replay, page cache, Get, Scan, the
// committed set — is one type behind both doors (reader.go): a View is a
// reader, a DB embeds one and adds the WAL head, Txn, the arena its commits
// carve pages from, and Checkpoint.
package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Database-level errors.
var (
	// ErrNotFormatted reports a volume whose block 0 was never written.
	ErrNotFormatted = errors.New("db: volume is not a formatted database")
	// ErrCorruptSuperblock reports a block 0 that holds data but is no valid
	// superblock: a damaged database, not a fresh volume.
	ErrCorruptSuperblock = errors.New("db: corrupt superblock")
	// ErrTxnTooLarge reports a transaction whose WAL footprint exceeds the
	// whole WAL region.
	ErrTxnTooLarge = errors.New("db: transaction exceeds WAL capacity")
	// ErrVolumeTooSmall reports a volume without room for WAL plus data.
	ErrVolumeTooSmall = errors.New("db: volume too small")
	// ErrTxnDone reports reuse of a committed transaction.
	ErrTxnDone = errors.New("db: transaction already finished")
)

// BlockWriter is the volume interface a database writes through: a
// BlockReader plus the two writes that adopt their buffers. storage.Volume
// satisfies it for unreplicated and ADC volumes (ADC acks locally), and
// replication.SyncVolume wraps a pair for SDC, so the replication mode is a
// drop-in choice — how the E5 slowdown experiment swaps modes.
type BlockWriter interface {
	BlockReader
	// WriteOwned adopts data as the stored block: the caller gives the buffer
	// up and never writes into it again.
	WriteOwned(p *sim.Proc, block int64, data []byte) (storage.Ack, error)
	// WriteOwnedBlocks is one gathered write: every Data is adopted as
	// WriteOwned adopts one and the blocks are acked in slice order; it has
	// returned only when all of them are (the caller's write barrier).
	WriteOwnedBlocks(p *sim.Proc, ios []storage.BlockIO) error
}

// Config tunes a database instance.
type Config struct {
	// WALBlocks is the size of the WAL region in blocks (default 64).
	WALBlocks int
}

func (c Config) withDefaults() Config {
	if c.WALBlocks <= 0 {
		c.WALBlocks = 64
	}
	return c
}

// DB is one database instance on one volume: the reader every open shares,
// plus the half that writes — the WAL head, transactions, the arena its
// commits carve pages from, and Checkpoint.
type DB struct {
	reader
	vol BlockWriter // the reader's img, through its write half

	// arena is the chunk commits carve their pages' rooms from, front to back:
	// its length is the part carved. A room that does not fit in the rest
	// starts a new chunk, twice the last, from one block up to arenaMaxBlocks;
	// the old chunk is left to the rooms in it. No byte is carved twice, so a
	// room its page has moved out of, a value Get lent from it and a page
	// Checkpoint handed over all keep their bytes.
	arena []byte

	walSeq uint32 // sequence (and region offset) of the current head block
	// head is the head block so far, header and records, in a buffer of
	// blockSize capacity (nil until the block's first record). Every write of
	// it hands over a capped prefix and the next commit appends past that
	// prefix, so no version handed over ever changes; a sealed block's buffer
	// is never reused.
	head []byte
	mu   *sim.Resource // serializes commits and checkpoints

	// sizeArr holds a commit's per-record encoded sizes, under mu: the shop's
	// transactions fit, so a fresh database's commits size their records
	// without allocating; a larger transaction's sizes spill to the heap.
	// Records are encoded once, straight into head, so no other commit
	// scratch exists.
	sizeArr [txnInlineRows + 1]int

	// Stats.
	commits     int64
	walWrites   int64
	pageFlushes int64
	checkpoints int64
	flushTime   time.Duration // the recovery checkpoint's, in simulated time
}

// Open attaches to the volume, formatting it on first use and running crash
// recovery otherwise: the replay, then a checkpoint so that it is durable and
// the WAL restarts fresh. Its cost is paid in simulated time (LogReadTime,
// PageReadTime, FlushTime).
func Open(p *sim.Proc, name string, vol BlockWriter, cfg Config) (*DB, error) {
	d := &DB{vol: vol, mu: p.Env().NewResource(1)}
	switch err := d.open(p, name, vol, cfg); {
	case errors.Is(err, ErrNotFormatted): // fresh volume: format it
		if err := d.writeSuperblock(p); err != nil {
			return nil, err
		}
		return d, nil
	case err != nil:
		return nil, err
	}
	rl, err := d.replay(p)
	if err != nil {
		return nil, err
	}
	if err := d.redo(rl); err != nil { // the checkpoint flushes the redone pages
		return nil, err
	}
	start := p.Now()
	if err := d.Checkpoint(p); err != nil {
		return nil, err
	}
	d.flushTime = p.Now() - start
	return d, nil
}

// walCapacity is the usable bytes per WAL block.
func (d *DB) walCapacity() int { return d.blockSize - wal.BlockHeaderSize }

// flushWAL encodes t's records, whose sizes the fit check computed, straight
// into the head block and writes every affected block: blocks sealed during
// this flush in their final form, then the (possibly partial) head block. The
// head block is rewritten in place as it fills across commits; the block
// header's (epoch, seq) keeps scans honest.
func (d *DB) flushWAL(p *sim.Proc, t *Txn, sizes []int) error {
	// Dry-run the packing before touching any state. The overflow error used
	// to fire mid-seal, leaving walSeq past the region end and the head reset —
	// a state in which a later head-block write would have landed on the
	// first data page.
	if seq, _ := d.walEndPosition(sizes); seq >= d.cfg.WALBlocks {
		return fmt.Errorf("db: %s: WAL overflow during flush", d.name)
	}
	for i, n := range sizes {
		if d.headUsed()+n > d.walCapacity() {
			if err := d.writeHead(p); err != nil {
				return err
			}
			d.walSeq++
			d.head = nil
		}
		if d.head == nil { // a new block, in a new buffer: the commit path's one allocation
			d.head = make([]byte, wal.BlockHeaderSize, d.blockSize)
			wal.PutBlockHeader(d.head, d.epoch, d.walSeq)
		}
		d.head = wal.AppendEncode(d.head, t.record(i))
	}
	return d.writeHead(p)
}

// writeHead hands the head block as it stands to the volume: a prefix of the
// buffer, capped so an append by any holder of it copies instead of reaching
// the bytes later commits add behind it. The rest of the block reads as zeroes.
func (d *DB) writeHead(p *sim.Proc) error {
	n := len(d.head)
	if _, err := d.vol.WriteOwned(p, d.walBase+int64(d.walSeq), d.head[:n:n]); err != nil {
		return err
	}
	d.walWrites++
	return nil
}

// headUsed returns the record bytes in the head block.
func (d *DB) headUsed() int { return max(len(d.head)-wal.BlockHeaderSize, 0) }

// walEndPosition returns the head position (block index within the WAL
// region, bytes used in that block) after packing records of the given
// sizes from the current head, honoring the records-never-span-blocks
// rule. It is the single definition of the packing rule that walFits and
// flushWAL's overflow dry-run share; it does not bounds-check the region.
func (d *DB) walEndPosition(sizes []int) (seq, buf int) {
	seq, buf = int(d.walSeq), d.headUsed()
	for _, n := range sizes {
		if buf+n > d.walCapacity() {
			seq++
			buf = 0
		}
		buf += n
	}
	return seq, buf
}

// walFits reports whether records of the given encoded sizes can be packed
// into the remaining WAL region from the current head position.
func (d *DB) walFits(sizes []int) bool {
	if int(d.walSeq) >= d.cfg.WALBlocks {
		// Head already past the region end (cannot happen unless state was
		// corrupted, but the last-block boundary must fail closed here, not
		// pass because no record happens to cross a block boundary).
		return false
	}
	seq, _ := d.walEndPosition(sizes)
	return seq < d.cfg.WALBlocks
}

// Checkpoint flushes the owned pages, bumps the log epoch, and resets the WAL
// head — the no-force flush point. The owned pages are handed over to the
// volume as one gathered write in ascending block order, each as its prefix
// capped at its length (so an append by any holder copies), and stay in the
// table where they sit, clean: the next write to one copies. The superblock
// that retires the log is its own request, issued only after the gather has
// returned — the write barrier: no image holds the new epoch without every
// page under it.
func (d *DB) Checkpoint(p *sim.Proc) error {
	n := 0
	for _, pg := range d.pages.all {
		if pg.owned {
			n++
		}
	}
	d.vec = d.vecFor(n)
	for b, pg := range d.pages.all {
		if pg.owned {
			d.vec = append(d.vec, storage.BlockIO{Block: b, Data: pg.data[:len(pg.data):len(pg.data)]})
		}
	}
	sortByBlock(d.vec)
	if err := d.vol.WriteOwnedBlocks(p, d.vec); err != nil {
		return err
	}
	d.pageFlushes += int64(len(d.vec))
	for _, io := range d.vec {
		d.pages.set(io.Block, page{data: io.Data})
	}
	d.epoch++
	d.walSeq, d.head = 0, nil // the old head is the volume's; the next commit starts a new buffer
	if err := d.writeSuperblock(p); err != nil {
		return err
	}
	d.checkpoints++
	return nil
}

// arenaMaxBlocks caps an arena chunk: 32 KiB of 512-byte blocks, 256 KiB of
// 4 KiB ones.
const arenaMaxBlocks = 64

// writablePage returns the page to upsert key into, with room for the slot the
// upsert may append. On the first write that is a copy of the clean page, which
// the commit that asks has loaded, in a room one slot longer than its prefix.
// After it, it is the owned page, moved to a room twice its size when the room
// is full and the key needs a slot it has not got. A room is at most a block.
// The caller stores the page an upsert returns back into the table, owned.
func (d *DB) writablePage(block int64, key uint64) []byte {
	pg, loaded := d.cached(block)
	switch {
	case !loaded:
		panic(fmt.Sprintf("db: %s: page %d written before it was loaded", d.name, block))
	case !pg.owned:
		return d.carve(pg.data, len(pg.data)+slotSize)
	case len(pg.data)+slotSize > cap(pg.data):
		if at, free, _ := pageFind(pg.data, key); at < 0 && free < 0 {
			return d.carve(pg.data, 2*cap(pg.data))
		}
	}
	return pg.data
}

// carve copies pg into a room of n bytes, at most a block, cut from the front
// of the arena, and returns it capped at the room, so an append past the room
// copies instead of reaching the next one.
func (d *DB) carve(pg []byte, n int) []byte {
	n = min(n, d.blockSize)
	off := len(d.arena)
	if off+n > cap(d.arena) {
		d.arena, off = make([]byte, 0, min(max(2*cap(d.arena), d.blockSize), arenaMaxBlocks*d.blockSize)), 0
	}
	d.arena = d.arena[:off+n]
	return append(d.arena[off:off:off+n], pg...)
}

// Commits returns the number of transactions committed this session.
func (d *DB) Commits() int64 { return d.commits }

// WALWrites returns the number of WAL block writes issued.
func (d *DB) WALWrites() int64 { return d.walWrites }

// PageFlushes returns the number of data-page writes issued.
func (d *DB) PageFlushes() int64 { return d.pageFlushes }

// Checkpoints returns the number of checkpoints taken.
func (d *DB) Checkpoints() int64 { return d.checkpoints }

// FlushTime returns the simulated time of the checkpoint that ended recovery:
// the page gather, then the superblock.
func (d *DB) FlushTime() time.Duration { return d.flushTime }

func (d *DB) writeSuperblock(p *sim.Proc) error {
	blk := make([]byte, sbSize) // a prefix, handed over like a WAL block
	binary.LittleEndian.PutUint32(blk[0:4], sbMagic)
	binary.LittleEndian.PutUint16(blk[4:6], sbVersion)
	binary.LittleEndian.PutUint32(blk[6:10], d.epoch)
	binary.LittleEndian.PutUint32(blk[10:14], uint32(d.cfg.WALBlocks))
	binary.LittleEndian.PutUint64(blk[14:22], d.nextTxID)
	binary.LittleEndian.PutUint32(blk[22:26], wal.Checksum(blk[0:22]))
	_, err := d.vol.WriteOwned(p, 0, blk)
	return err
}

func (d *DB) String() string {
	return fmt.Sprintf("DB(%s){epoch=%d commits=%d}", d.name, d.epoch, d.commits)
}
