package storage

import (
	"bytes"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"time"

	"repro/internal/sim"
)

// Volume is a block-addressed logical device. Blocks not yet written read as
// zeroes. Writes are acknowledged only after the controller has stored the
// data and, when the volume belongs to a journal (replication is enabled),
// appended the update log — this is the ack-order guarantee §I relies on.
type Volume struct {
	id         VolumeID
	array      *Array
	sizeBlocks int64
	journal    *Journal
	snapshots  []*Snapshot
	readOnly   bool
	member     int32 // index in the journal group's Members(), while attached

	// queue is the volume's own service queue (Config.IsolatedVolumes);
	// nil when the shared array controller serializes I/O.
	queue *sim.Resource

	writes, reads int64
	cowCopies     int64 // blocks preserved for snapshots (write amplification)

	// The block table, read by block and written by put: a slot table while
	// the volume is sparse, then one slot per block (dense) and slots nil.
	// written counts the blocks stored, in either form.
	slots   blockTable
	dense   [][]byte
	written int

	// changed has one bit per block written since StartChangeTracking — the
	// delta-resync bitmap real arrays keep for failback. nil = off.
	changed []uint64
}

// denseDivisor sets the table's switch: a volume turns dense when a write
// would take it past one block in denseDivisor. A dense slot is a slice
// header, 24 B per block. A sparse slot is 32 B, in a table that doubles when
// 7/8 full: with the tables it outgrew, 64 blocks have cost 7,936 B (124 B a
// block), two thirds of a 514-block volume's dense table. The volumes that
// cross an eighth (drained ones, a shop's sales log) go on to fill, so the
// switch comes no later; one in 16 turns a recovered 256-block volume dense,
// and one in 32 costs the shop's volumes more than it saves.
const denseDivisor = 8

// blockTable holds a sparse volume's blocks: one slice of slots, a power of
// two long, probed linearly from the block's own index, so a run of
// consecutive blocks takes a run of slots. A table of 8 slots fills to the
// last; a longer one fills to 7/8.
type blockTable []blockSlot

type blockSlot struct {
	key  int64 // the block's index + 1; 0 marks a free slot
	data []byte
}

// tableFits returns how many blocks a table of size slots holds.
func tableFits(size int) int {
	if size <= 8 {
		return size
	}
	return size - size/8
}

// find returns the slot holding block b and true, else the free slot it would
// take and false (-1 when the table is full: the probe ends after one lap).
func (t blockTable) find(b int64) (int, bool) {
	mask := len(t) - 1
	for i, probes := int(b)&mask, 0; probes < len(t); i, probes = (i+1)&mask, probes+1 {
		switch t[i].key {
		case b + 1:
			return i, true
		case 0:
			return i, false
		}
	}
	return -1, false
}

// grown returns t's blocks in a table twice as long, or of 8 slots.
func (t blockTable) grown() blockTable {
	g := make(blockTable, max(8, 2*len(t)))
	for _, s := range t {
		if s.key != 0 {
			i, _ := g.find(s.key - 1)
			g[i] = s
		}
	}
	return g
}

// block returns the stored block, nil when it was never written (or lies
// outside the volume).
func (v *Volume) block(b int64) []byte {
	if v.dense == nil {
		if i, ok := v.slots.find(b); ok {
			return v.slots[i].data
		}
		return nil
	}
	if uint64(b) < uint64(len(v.dense)) {
		return v.dense[b]
	}
	return nil
}

// put makes buf the stored block, first moving the slot table into a dense
// table when this write would take the volume past its share.
func (v *Volume) put(b int64, buf []byte) {
	if v.dense == nil {
		i, ok := v.slots.find(b)
		switch {
		case ok:
			v.slots[i].data = buf
			return
		case int64(v.written+1)*denseDivisor <= v.sizeBlocks:
			if v.written >= tableFits(len(v.slots)) {
				v.slots = v.slots.grown()
				i, _ = v.slots.find(b)
			}
			v.slots[i] = blockSlot{key: b + 1, data: buf}
			v.written++
			return
		}
		v.dense = make([][]byte, v.sizeBlocks)
		for _, s := range v.slots {
			if s.key != 0 {
				v.dense[s.key-1] = s.data
			}
		}
		v.slots = nil
	}
	if v.dense[b] == nil {
		v.written++
	}
	v.dense[b] = buf
}

// Blocks yields every written block and its stored slice, borrowed as a
// read's is: in ascending order once the table is dense, in table order while
// it is sparse. Its cost follows the blocks written (a dense table is one in
// eight written at least), not the volume's size.
func (v *Volume) Blocks() iter.Seq2[int64, []byte] {
	return func(yield func(int64, []byte) bool) {
		if v.dense == nil {
			for _, s := range v.slots {
				if s.key != 0 && !yield(s.key-1, s.data) {
					return
				}
			}
			return
		}
		for b, blk := range v.dense {
			if blk != nil && !yield(int64(b), blk) {
				return
			}
		}
	}
}

// WrittenCount returns how many blocks have been written.
func (v *Volume) WrittenCount() int { return v.written }

// StartChangeTracking begins recording written block indexes (resets any
// previous record). Replication failover turns this on for its targets so
// failback can resynchronize only the delta.
func (v *Volume) StartChangeTracking() { v.changed = make([]uint64, (v.sizeBlocks+63)/64) }

// StopChangeTracking discards the change record.
func (v *Volume) StopChangeTracking() { v.changed = nil }

// TrackingChanges reports whether the volume is currently change tracking —
// the fail-closed invariant checkers use it to assert that every member of
// an overflowed journal is accumulating its resync delta.
func (v *Volume) TrackingChanges() bool { return v.changed != nil }

// ChangedBlocks returns the blocks written since StartChangeTracking, in
// ascending order.
func (v *Volume) ChangedBlocks() []int64 {
	n := 0
	for _, w := range v.changed {
		n += bits.OnesCount64(w)
	}
	out := make([]int64, 0, n)
	for i, w := range v.changed {
		for ; w != 0; w &= w - 1 {
			out = append(out, int64(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

func (v *Volume) noteChange(block int64) {
	if v.changed != nil {
		v.changed[block/64] |= 1 << (block % 64)
	}
}

// ID returns the volume's identifier.
func (v *Volume) ID() VolumeID { return v.id }

// SizeBlocks returns the provisioned size in blocks.
func (v *Volume) SizeBlocks() int64 { return v.sizeBlocks }

// BlockSize returns the array's block size in bytes.
func (v *Volume) BlockSize() int { return v.array.cfg.BlockSize }

// Journal returns the shard journal the volume's writes are logged to, or
// nil when replication is off.
func (v *Volume) Journal() *Journal { return v.journal }

// SetReadOnly toggles write protection (used on backup-site volumes while
// they are replication targets).
func (v *Volume) SetReadOnly(ro bool) { v.readOnly = ro }

// Writes returns the number of block writes served.
func (v *Volume) Writes() int64 { return v.writes }

// Reads returns the number of block reads served.
func (v *Volume) Reads() int64 { return v.reads }

// COWCopies returns how many original blocks were preserved for snapshots —
// the snapshot write amplification measured in experiment E3.
func (v *Volume) COWCopies() int64 { return v.cowCopies }

// Ack describes a completed write as seen by the host.
type Ack struct {
	Volume    VolumeID
	Block     int64
	GlobalSeq int64         // array-wide ack order
	AckedAt   time.Duration // virtual time of the ack
}

// Write stores one block, consuming simulated controller and media time, and
// returns the ack. Data is the block or a prefix of it: 1 to BlockSize bytes,
// the rest reading as zeroes, charged as a whole block either way. The caller
// keeps its buffer: Write is WriteOwned of a copy of the shortest prefix that
// reads the same, so a 4 KiB buffer carrying an 8-byte stamp stores 8 bytes,
// carved from the array's slab (Array.carve).
func (v *Volume) Write(p *sim.Proc, block int64, data []byte) (Ack, error) {
	// Validate the caller's length, not the trimmed one: an oversized buffer
	// of trailing zeroes is still an error.
	if err := v.checkWrite(block, len(data)); err != nil {
		return Ack{}, err
	}
	n, _ := shortestPrefix(data)
	return v.WriteOwned(p, block, v.array.carve(data[:n]))
}

// shortestPrefix returns one past the last non-zero byte of a non-empty data,
// at least 1 (a written all-zero block stays distinct from a never-written
// one), and the bytes its probes spanned. It is one search: the answer lies in
// (lo, hi], data[hi:] reading as zeroes, and a probe at k asks in one wide
// compare whether data[k:hi] does too. The first probes sit where written
// blocks end: a full block's last byte, then all past a stamped block's first
// word, then that word's last byte. Halving finds any other end.
func shortestPrefix(data []byte) (n, span int) {
	lo, hi := 0, len(data)
	probe := func(k int) {
		if lo < k && k < hi {
			b := data[k:hi] // all zero: its first byte is, and each byte equals the next
			if span += len(b); b[0] == 0 && bytes.Equal(b[:len(b)-1], b[1:]) {
				hi = k
			} else {
				lo = k
			}
		}
	}
	probe(hi - 1)
	probe(8)
	probe(7)
	for hi-lo > 1 {
		probe(lo + (hi-lo)/2)
	}
	return hi, span
}

// WriteOwned is the host write for a caller that gives its buffer up: the
// volume ADOPTS data as the stored block (and as the journal record's Data),
// exactly as InstallDelta does, so the caller must never write into it again.
func (v *Volume) WriteOwned(p *sim.Proc, block int64, data []byte) (Ack, error) {
	if err := v.checkWrite(block, len(data)); err != nil {
		return Ack{}, err
	}
	chargeBatch(p, v.service(), 1, v.writeLatency(), false)
	return v.ack(p, block, data), nil
}

// BlockIO is one element of a vectored request: ReadBlocks fills Data with the
// borrowed block (nil = never written, never to be modified, as Read's is);
// WriteOwnedBlocks takes Data over as the stored block, as WriteOwned does.
type BlockIO struct {
	Block int64
	Data  []byte
}

// WriteOwnedBlocks is one gathered host write: the vector is validated whole
// before anything is charged or stored, charged as one batch, then acked in
// slice order — each block stored, stamped with the next GlobalSeq and
// journaled as WriteOwned would — all at the instant the gather returns.
func (v *Volume) WriteOwnedBlocks(p *sim.Proc, ios []BlockIO) error {
	for _, io := range ios {
		if err := v.checkWrite(io.Block, len(io.Data)); err != nil {
			return err
		}
	}
	chargeBatch(p, v.service(), len(ios), v.writeLatency(), true)
	for _, io := range ios {
		v.ack(p, io.Block, io.Data)
	}
	return nil
}

// checkWrite validates one host write.
func (v *Volume) checkWrite(block int64, n int) error {
	if v.readOnly {
		return fmt.Errorf("%w: %s", ErrReadOnly, v.id)
	}
	return v.checkBlock(block, n)
}

// writeLatency is the service time of one host write: media plus (when
// journaled) journal staging, fused so a journaled write is one scheduler
// step. The ack time is identical to charging the two legs separately.
func (v *Volume) writeLatency() time.Duration {
	if v.journal != nil {
		return v.array.cfg.WriteLatency + v.array.cfg.JournalLatency
	}
	return v.array.cfg.WriteLatency
}

// ack completes one host write whose service time has passed: store the block
// and, when replication is on, log it. p is the acking process.
func (v *Volume) ack(p *sim.Proc, block int64, data []byte) Ack {
	v.install(block, data)
	v.countWrite()
	ack := Ack{
		Volume:    v.id,
		Block:     block,
		GlobalSeq: v.array.nextGlobalSeq(),
		AckedAt:   p.Now(),
	}
	if v.journal != nil {
		switch {
		case v.journal.Overflowed():
			// Pair suspended: the write is not journaled; change tracking
			// (started at overflow) records it for the eventual resync.
		case v.journal.CapacityBytes() > 0 &&
			v.journal.PendingBytes()+v.journal.RecordBytes() > v.journal.CapacityBytes():
			v.journal.group.overflow()
			v.noteChange(block) // tracking started just now; cover this write
		default:
			v.journal.append(v.member, block, data, ack.GlobalSeq, ack.AckedAt)
		}
	}
	return ack
}

// service returns the queue the volume's I/O waits in: its own in isolated
// mode, otherwise the array's shared controller.
func (v *Volume) service() *sim.Resource {
	if v.queue != nil {
		return v.queue
	}
	return v.array.controller
}

// preserveForSnapshots hands the current block to every snapshot that has
// not yet saved it (copy-on-write). The caller is about to install a fresh
// slice for the block and stored slices are never written into, so the
// snapshot keeps the old slice itself; the copy the array would make is
// counted, not performed.
func (v *Volume) preserveForSnapshots(block int64) {
	for _, s := range v.snapshots {
		if _, saved := s.saved[block]; saved {
			continue
		}
		s.saved[block] = v.block(block) // nil means "was unwritten (zeroes)"
		v.cowCopies++
	}
}

// Read returns one block, consuming simulated read service time. Every read
// — Read, ReadRange, Peek, here and on Snapshot — is borrowed: a never-written
// block (which reads as zeroes) is nil, and a written block is the stored
// slice itself, not a copy. That is sound because the volume never writes
// into a stored block (every write installs a fresh slice), so a borrowed
// block keeps the content it had when it was read; the caller in turn must
// not modify it, and clones it if it needs one it can write.
func (v *Volume) Read(p *sim.Proc, block int64) ([]byte, error) { return v.read(p, nil, block) }

// ReadRange reads count consecutive blocks starting at start as one request:
// one scheduler step, its service time chargeBatch's — count reads spread over
// the slots free when it starts, so count × ReadLatency only on a queue of one.
// The result is sparse and borrowed, block by block as Read's is, and nil as a
// whole when no block in the range was written (charged the same).
func (v *Volume) ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error) {
	return v.readRange(p, nil, start, count)
}

// ReadBlocks is one scatter read: ReadRange's request for the blocks the
// vector names, in any order, each borrowed into its Data. A bad index fails
// the whole vector before anything is charged or filled.
func (v *Volume) ReadBlocks(p *sim.Proc, ios []BlockIO) error { return v.readBlocks(p, nil, ios) }

// read, readRange and readBlocks are the one read path of a volume and of its
// snapshots: s is the snapshot read, nil for the volume's own image. The two
// differ only in the block lookup (at), the queue and the counters
// (chargeReads).
func (v *Volume) read(p *sim.Proc, s *Snapshot, block int64) ([]byte, error) {
	if block < 0 || block >= v.sizeBlocks {
		return nil, fmt.Errorf("%w: %s[%d]", ErrOutOfRange, v.label(s), block)
	}
	v.chargeReads(p, s, 1, false)
	return v.at(s, block), nil
}

// readRange makes the result at the first written block, so a range with
// none is nil.
func (v *Volume) readRange(p *sim.Proc, s *Snapshot, start int64, count int) ([][]byte, error) {
	if count < 0 || start < 0 || start+int64(count) > v.sizeBlocks {
		return nil, fmt.Errorf("%w: %s[%d..%d)", ErrOutOfRange, v.label(s), start, start+int64(count))
	}
	v.chargeReads(p, s, count, false)
	var out [][]byte
	for i := range count {
		if blk := v.at(s, start+int64(i)); blk != nil {
			if out == nil {
				out = make([][]byte, count)
			}
			out[i] = blk
		}
	}
	return out, nil
}

func (v *Volume) readBlocks(p *sim.Proc, s *Snapshot, ios []BlockIO) error {
	for _, io := range ios {
		if io.Block < 0 || io.Block >= v.sizeBlocks {
			return fmt.Errorf("%w: %s[%d]", ErrOutOfRange, v.label(s), io.Block)
		}
	}
	v.chargeReads(p, s, len(ios), true)
	for i := range ios {
		ios[i].Data = v.at(s, ios[i].Block)
	}
	return nil
}

// chargeReads passes the service time of one n-block read request
// (chargeBatch: a range, or a vector that yields) and counts the n reads. A
// snapshot is served by the shared controller even in isolated mode, and its
// reads count on the array only.
func (v *Volume) chargeReads(p *sim.Proc, s *Snapshot, n int, yields bool) {
	if s != nil {
		chargeBatch(p, v.array.controller, n, ReadLatency, yields)
	} else {
		chargeBatch(p, v.service(), n, ReadLatency, yields)
		v.reads += int64(n)
	}
	v.array.readOps += int64(n)
}

// at returns the block a read of s sees: the original s preserved if the
// volume has overwritten the block since, otherwise the volume's current one.
func (v *Volume) at(s *Snapshot, block int64) []byte {
	if s != nil {
		if orig, saved := s.saved[block]; saved {
			return orig
		}
	}
	return v.block(block)
}

// label names what a read addresses in its errors.
func (v *Volume) label(s *Snapshot) string {
	if s != nil {
		return "snapshot " + s.id
	}
	return string(v.id)
}

// Peek is Read without consuming simulated time — the verification back door
// used by the consistency checker; production code paths must use Read.
func (v *Volume) Peek(block int64) []byte { return v.block(block) }

// checkBlock validates a block index and a payload length against the volume:
// a stored block is a prefix of 1 to BlockSize bytes.
func (v *Volume) checkBlock(block int64, n int) error {
	if block < 0 || block >= v.sizeBlocks {
		return fmt.Errorf("%w: %s[%d]", ErrOutOfRange, v.id, block)
	}
	if n <= 0 || n > v.array.cfg.BlockSize {
		return fmt.Errorf("%w: got %d want 1..%d", ErrBadBlockSize, n, v.array.cfg.BlockSize)
	}
	return nil
}

// install makes buf the block's content — the slice itself, not a copy — after
// letting snapshots keep the one it replaces. Stored slices are never written
// into (every write installs a fresh one), so whoever hands buf over gives it
// up: neither the caller nor anyone it shared buf with may modify it again.
func (v *Volume) install(block int64, buf []byte) {
	v.preserveForSnapshots(block)
	v.put(block, buf)
	v.noteChange(block)
}

// countWrite adds one stored block to the write counters, at BlockSize bytes
// however long a prefix it was given as.
func (v *Volume) countWrite() {
	v.writes++
	v.array.writeOps++
	v.array.bytesWritten += int64(v.array.cfg.BlockSize)
}

// Poke installs a copy of data without consuming time or journaling; test
// fixtures and the chaos harness use it, and keep their buffer. Snapshots
// still observe the overwrite (COW fires) so backup-site snapshots stay
// correct.
func (v *Volume) Poke(block int64, data []byte) error {
	if err := v.checkBlock(block, len(data)); err != nil {
		return err
	}
	v.install(block, bytes.Clone(data))
	return nil
}

// InstallDelta stores a block as part of a replication delta-set commit.
// No service time passes here — the engine charges the whole set's apply
// time up front via Array.ApplyDeltaSet — but write accounting matches the
// Apply path so backup-array counters see the traffic.
//
// The volume ADOPTS data; it does not copy it. A journal Record's Data is the
// primary's stored block, so after the install both sites hold the same
// immutable slice, and each keeps it when the other overwrites the block (an
// overwrite installs a fresh slice; it never writes into the old one). The
// caller must hand over a slice nobody will modify: a Record's Data, a block
// borrowed from any read, or a copy of its own.
func (v *Volume) InstallDelta(block int64, data []byte) error {
	if err := v.checkBlock(block, len(data)); err != nil {
		return err
	}
	v.install(block, data)
	v.countWrite()
	return nil
}

// Apply is the replication-target write path: it stores the block after the
// media service time but never journals (targets do not re-replicate) and
// ignores read-only protection (the replication engine owns the target).
// Like InstallDelta it adopts data: a caller that goes on using its buffer
// passes a copy.
func (v *Volume) Apply(p *sim.Proc, block int64, data []byte) error {
	if err := v.checkBlock(block, len(data)); err != nil {
		return err
	}
	chargeBatch(p, v.service(), 1, v.array.cfg.WriteLatency, false)
	v.install(block, data)
	v.countWrite()
	return nil
}

// WrittenBlocks returns the indexes of blocks that have been written, in
// ascending order (verification helper).
func (v *Volume) WrittenBlocks() []int64 {
	out := make([]int64, 0, v.written)
	for b := range v.Blocks() {
		out = append(out, b)
	}
	if v.dense == nil {
		slices.Sort(out)
	}
	return out
}

func (v *Volume) String() string {
	return fmt.Sprintf("Volume(%s/%s){%d blocks, %d written}", v.array.name, v.id, v.sizeBlocks, v.written)
}
