// Package wal defines the write-ahead-log record format used by the
// transactional database (internal/db). Records are redo-only: every update
// of a transaction is logged before its commit record, and recovery replays
// updates of committed transactions in log order. The format is
// self-delimiting, checksummed, and epoch-stamped so a scanner can walk a
// log region and stop at the first torn, never-written, or stale record —
// exactly the "valid prefix" semantics that storage-level consistency
// preserves.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordType discriminates log records.
type RecordType uint8

// Record types.
const (
	// TypeUpdate logs one key/value change of a transaction.
	TypeUpdate RecordType = 1
	// TypeCommit marks a transaction durable; recovery replays only
	// transactions whose commit record is in the valid prefix.
	TypeCommit RecordType = 2
)

// Errors returned by Decode and the scanners.
var (
	// ErrEndOfLog reports a clean end: a zeroed or never-written region.
	ErrEndOfLog = errors.New("wal: end of log")
	// ErrCorrupt reports a malformed or checksum-failing record, e.g. a
	// torn write at the very end of the valid prefix.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTooLarge reports a record that cannot fit in one block.
	ErrTooLarge = errors.New("wal: record larger than block")
)

const (
	magic = 0xA5
	// headerSize is magic(1) + type(1) + epoch(4) + txid(8) + key(8) +
	// vallen(2).
	headerSize = 24
	// crcSize trails every record.
	crcSize = 4
	// Overhead is the per-record framing cost in bytes.
	Overhead = headerSize + crcSize
)

// Record is one log entry.
type Record struct {
	Type RecordType
	// Epoch is the log generation; checkpointing bumps it so records left
	// over from a previous generation terminate the scan instead of being
	// replayed.
	Epoch uint32
	TxID  uint64
	Key   uint64
	Val   []byte // empty for TypeCommit
}

// EncodedSize returns the record's on-disk size in bytes.
func (r Record) EncodedSize() int { return Overhead + len(r.Val) }

// AppendEncode appends the encoded record to dst and returns the result.
func AppendEncode(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, magic, byte(r.Type))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], r.Epoch)
	dst = append(dst, u32[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], r.TxID)
	dst = append(dst, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], r.Key)
	dst = append(dst, u64[:]...)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(r.Val)))
	dst = append(dst, u16[:]...)
	dst = append(dst, r.Val...)
	return binary.LittleEndian.AppendUint32(dst, Checksum(dst[start:]))
}

// Checksum is the on-disk format's one checksum, every WAL record's and the
// superblock's: CRC-32C (as in iSCSI and ext4), which the CPU computes in one
// instruction at any length; IEEE CRC-32's hardware path starts at 64 bytes.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode reads one record from the front of buf, returning the record and
// the number of bytes consumed. A zero first byte yields ErrEndOfLog; any
// framing or checksum violation yields ErrCorrupt. The record's Val points
// into buf: replay applies records straight from log blocks it only
// borrowed, and a scan that copied every value would cost more than the
// redo it feeds.
func Decode(buf []byte) (Record, int, error) {
	if len(buf) == 0 || buf[0] == 0 {
		return Record{}, 0, ErrEndOfLog
	}
	if buf[0] != magic {
		return Record{}, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, buf[0])
	}
	if len(buf) < headerSize {
		return Record{}, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	typ := RecordType(buf[1])
	if typ != TypeUpdate && typ != TypeCommit {
		return Record{}, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, buf[1])
	}
	epoch := binary.LittleEndian.Uint32(buf[2:6])
	txid := binary.LittleEndian.Uint64(buf[6:14])
	key := binary.LittleEndian.Uint64(buf[14:22])
	vlen := int(binary.LittleEndian.Uint16(buf[22:24]))
	total := headerSize + vlen + crcSize
	if len(buf) < total {
		return Record{}, 0, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[headerSize+vlen : total])
	if Checksum(buf[:headerSize+vlen]) != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	val := buf[headerSize : headerSize+vlen : headerSize+vlen]
	return Record{Type: typ, Epoch: epoch, TxID: txid, Key: key, Val: val}, total, nil
}

// Block header layout: magic(2) + epoch(4) + seq(4) + pad(2). Every WAL
// block starts with one; the scanner follows consecutive seq numbers within
// one epoch, which is what lets it distinguish the live log from stale
// blocks left over by earlier generations or by in-place head rewrites.
const (
	// BlockHeaderSize is the per-block framing cost in bytes.
	BlockHeaderSize = 12
	blockMagic      = 0x5741 // "WA"
)

// PutBlockHeader stamps a block's header in place. The block must be at
// least BlockHeaderSize long.
func PutBlockHeader(block []byte, epoch, seq uint32) {
	binary.LittleEndian.PutUint16(block[0:2], blockMagic)
	binary.LittleEndian.PutUint32(block[2:6], epoch)
	binary.LittleEndian.PutUint32(block[6:10], seq)
	block[10], block[11] = 0, 0
}

// ReadBlockHeader parses a block header; ok is false for anything that is
// not a WAL block (zeroed space, data pages, garbage).
func ReadBlockHeader(block []byte) (epoch, seq uint32, ok bool) {
	if len(block) < BlockHeaderSize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint16(block[0:2]) != blockMagic {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(block[2:6]), binary.LittleEndian.Uint32(block[6:10]), true
}

// LiveBlock reports whether block is block seq of epoch's live log: a WAL
// block whose header carries that epoch and sequence number. The live log is
// the run of blocks from the region's first for which it holds; the first one
// for which it does not (never written, zeroed, a stale generation's, garbage)
// ends the log, whatever lies behind it.
func LiveBlock(block []byte, epoch, seq uint32) bool {
	e, s, ok := ReadBlockHeader(block)
	return ok && e == epoch && s == seq
}

// BlockBuilder packs records into fixed-size, header-stamped blocks.
// Records never span blocks: when one does not fit in the remaining space,
// the block is padded with zeroes (which scan as end-of-block) and the
// record starts the next block.
type BlockBuilder struct {
	blockSize int
	epoch     uint32
	nextSeq   uint32
	cur       []byte // record bytes only; header added at seal
	full      [][]byte
}

// NewBlockBuilder returns a builder that stamps blocks with the given epoch,
// numbering them from startSeq.
func NewBlockBuilder(blockSize int, epoch, startSeq uint32) *BlockBuilder {
	return &BlockBuilder{blockSize: blockSize, epoch: epoch, nextSeq: startSeq}
}

// Append adds a record, sealing the current block first when the record
// does not fit. It fails with ErrTooLarge when the record can never fit in
// one block.
func (b *BlockBuilder) Append(r Record) error {
	n := r.EncodedSize()
	if n > b.blockSize-BlockHeaderSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, n, b.blockSize-BlockHeaderSize)
	}
	if BlockHeaderSize+len(b.cur)+n > b.blockSize {
		b.seal()
	}
	b.cur = AppendEncode(b.cur, r)
	return nil
}

func (b *BlockBuilder) seal() {
	blk := make([]byte, b.blockSize)
	PutBlockHeader(blk, b.epoch, b.nextSeq)
	b.nextSeq++
	copy(blk[BlockHeaderSize:], b.cur)
	b.full = append(b.full, blk)
	b.cur = b.cur[:0]
}

// Blocks seals any partial block and returns every block built so far. The
// builder keeps counting seq numbers, so further appends continue the log.
func (b *BlockBuilder) Blocks() [][]byte {
	if len(b.cur) > 0 {
		b.seal()
	}
	out := b.full
	b.full = nil
	return out
}

// ScanBlock decodes the records of one block after validating its header
// against the wanted epoch and sequence number. ok reports whether the
// header matched (if not, the live log ends before this block).
func ScanBlock(block []byte, epoch, seq uint32) (recs []Record, ok bool, err error) {
	if !LiveBlock(block, epoch, seq) {
		return nil, false, nil
	}
	err = eachRecord(block, epoch, func(r Record) { recs = append(recs, r) })
	return recs, true, err
}

// eachRecord calls fn with each record of one block that Decode accepts,
// until the block ends — a zero byte, its last byte, or a record of another
// epoch than the block's. The error is Decode's for a torn record.
func eachRecord(block []byte, epoch uint32, fn func(Record)) error {
	for off := BlockHeaderSize; off < len(block); {
		r, n, err := Decode(block[off:])
		if errors.Is(err, ErrEndOfLog) {
			return nil
		}
		if err != nil {
			return err
		}
		if r.Epoch != epoch {
			return nil
		}
		fn(r)
		off += n
	}
	return nil
}

// ValidPrefix checks the current-epoch records across the first n blocks of a
// log region, block(i) returning block i, until the valid prefix ends: a
// block that is not LiveBlock (a nil block — a sparse read's never-written one
// — ends it like the zeroed block it stands for), or a torn record. It
// returns how many records the prefix holds, each one's framing and checksum
// checked once, so that Walk reads them back checking neither. The error is
// nil for a clean end and ErrCorrupt when the prefix ends in a torn record
// (the records before the tear are counted: recovery replays them). block is
// an accessor, not a slice, so a reader checks the blocks its I/O vector
// borrowed without building a second list of them.
func ValidPrefix(n int, block func(i int) []byte, epoch uint32) (int, error) {
	count := 0
	for i := 0; i < n && LiveBlock(block(i), epoch, uint32(i)); i++ {
		if err := eachRecord(block(i), epoch, func(Record) { count++ }); err != nil {
			return count, err
		}
	}
	return count, nil
}

// Walk calls yield with the first count records of the log, in log order,
// decoded in place — each Val points into its block — until yield returns
// false. It checks no header, framing or checksum: count must be what
// ValidPrefix returned for the same blocks and epoch. It ends each block's
// records where ValidPrefix did, at a zero byte or a record of another epoch,
// and reads no block past the one holding the last record.
func Walk(count int, block func(i int) []byte, epoch uint32, yield func(Record) bool) {
	for i := 0; count > 0; i++ {
		b := block(i)
		for off := BlockHeaderSize; count > 0 && off < len(b) && b[off] != 0; count-- {
			h := b[off : off+headerSize : off+headerSize]
			if binary.LittleEndian.Uint32(h[2:6]) != epoch {
				break
			}
			end := off + headerSize + int(binary.LittleEndian.Uint16(h[22:24]))
			if !yield(Record{
				Type:  RecordType(h[1]),
				Epoch: epoch,
				TxID:  binary.LittleEndian.Uint64(h[6:14]),
				Key:   binary.LittleEndian.Uint64(h[14:22]),
				Val:   b[off+headerSize : end : end],
			}) {
				return
			}
			off = end + crcSize
		}
	}
}
