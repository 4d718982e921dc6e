package db

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/wal"
)

// Txn buffers a transaction's updates until Commit. Updates are not visible
// to reads (including the transaction's own) until Commit returns — the
// deferred-update discipline that keeps uncommitted data off disk.
type Txn struct {
	db      *DB
	id      uint64
	updates []Row
	done    bool
}

// Begin starts a transaction with a fresh ID.
func (d *DB) Begin() *Txn {
	id := d.nextTxID
	d.nextTxID++
	return &Txn{db: d, id: id}
}

// BeginWithID starts a transaction with a caller-chosen ID. The e-commerce
// workload uses it to stamp the same business transaction ID into both the
// sales and stock databases so the consistency verifier can correlate them.
func (d *DB) BeginWithID(id uint64) *Txn {
	if id >= d.nextTxID {
		d.nextTxID = id + 1
	}
	return &Txn{db: d, id: id}
}

// ID returns the transaction ID.
func (t *Txn) ID() uint64 { return t.id }

// Put buffers an upsert of key to val.
func (t *Txn) Put(key uint64, val []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if key == 0 {
		return ErrZeroKey
	}
	if len(val) > MaxValLen {
		return fmt.Errorf("%w: %d bytes", ErrValTooLarge, len(val))
	}
	v := make([]byte, len(val))
	copy(v, val)
	t.updates = append(t.updates, Row{Key: key, TxID: t.id, Val: v})
	return nil
}

// Get reads a key with read-your-writes semantics: the transaction's own
// buffered update wins over the committed state.
func (t *Txn) Get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnDone
	}
	for i := len(t.updates) - 1; i >= 0; i-- {
		if t.updates[i].Key == key {
			out := make([]byte, len(t.updates[i].Val))
			copy(out, t.updates[i].Val)
			return out, true, nil
		}
	}
	return t.db.Get(p, key)
}

// Abort discards the transaction. Nothing was written, so it is free.
func (t *Txn) Abort() { t.done = true }

// encode writes the transaction's update and commit records, stamped with
// the database's current epoch, into the DB's reusable encode buffers and
// returns per-record views. Record boundaries are observed while encoding
// (not derived from pre-computed sizes), so the views stay correct even if
// the encoded size of a record ever depends on its content or epoch.
func (t *Txn) encode() [][]byte {
	d := t.db
	d.encBuf = d.encBuf[:0]
	d.encOffs = d.encOffs[:0]
	for _, u := range t.updates {
		d.encBuf = wal.AppendEncode(d.encBuf, wal.Record{
			Type: wal.TypeUpdate, Epoch: d.epoch, TxID: t.id, Key: u.Key, Val: u.Val,
		})
		d.encOffs = append(d.encOffs, len(d.encBuf))
	}
	d.encBuf = wal.AppendEncode(d.encBuf, wal.Record{
		Type: wal.TypeCommit, Epoch: d.epoch, TxID: t.id,
	})
	d.encOffs = append(d.encOffs, len(d.encBuf))
	d.encSlices = d.encSlices[:0]
	start := 0
	for _, end := range d.encOffs {
		d.encSlices = append(d.encSlices, d.encBuf[start:end])
		start = end
	}
	return d.encSlices
}

// Commit makes the transaction durable: WAL records (updates + commit) are
// flushed to the volume, then the updates are applied to the in-memory
// pages. The ack the caller gets back is the database commit ack whose
// latency E5 measures.
func (t *Txn) Commit(p *sim.Proc) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	d := t.db
	// Commits serialize: interleaved WAL flushes from concurrent clients
	// would corrupt the head-block state.
	d.mu.Acquire(p)
	defer d.mu.Release()
	// Verify every update has a slot before logging anything: a key already
	// on its page rewrites its slot, an absent key needs a free one — after
	// those the transaction's earlier absent keys on that page will take.
	claims := make([]uint64, 0, 8) // absent keys granted a slot so far, distinct; stays on the stack
	for _, u := range t.updates {
		block := d.pageBlock(u.Key)
		page, err := d.loadPage(p, block)
		if err != nil {
			return err
		}
		at, _, free := pageFind(page, u.Key)
		if at >= 0 || slices.Contains(claims, u.Key) {
			continue
		}
		for _, c := range claims {
			if d.pageBlock(c) == block {
				free--
			}
		}
		if free <= 0 {
			return fmt.Errorf("%w: key %d", ErrPageFull, u.Key)
		}
		claims = append(claims, u.Key)
	}
	// Size the log entries before encoding anything, so the fit check (and
	// any checkpoint it forces) happens first and the records are encoded
	// exactly once, with the final epoch.
	sizes := d.sizeBuf[:0]
	var totalBytes int
	for _, u := range t.updates {
		n := wal.Record{Type: wal.TypeUpdate, TxID: t.id, Key: u.Key, Val: u.Val}.EncodedSize()
		if n > d.walCapacity() {
			return fmt.Errorf("%w: record %d bytes", ErrTxnTooLarge, n)
		}
		sizes = append(sizes, n)
		totalBytes += n
	}
	commitSize := wal.Record{Type: wal.TypeCommit, TxID: t.id}.EncodedSize()
	sizes = append(sizes, commitSize)
	totalBytes += commitSize
	d.sizeBuf = sizes
	// Make room: a checkpoint empties the WAL but must not run between a
	// transaction's records, so take it up front when the packing check
	// says the records will not fit in the remaining region.
	if !d.walFits(sizes) {
		if err := d.Checkpoint(p); err != nil {
			return err
		}
		if !d.walFits(sizes) {
			return fmt.Errorf("%w: %d bytes", ErrTxnTooLarge, totalBytes)
		}
	}
	if err := d.flushWAL(p, t.encode()); err != nil {
		return err
	}
	// The transaction is durable; apply to memory pages (no-force).
	for _, u := range t.updates {
		block := d.pageBlock(u.Key)
		if err := pageUpsert(d.pages[block], u); err != nil { // loaded above
			// The fit check above guaranteed room; this indicates a bug.
			panic(fmt.Sprintf("db: %s: post-log upsert failed: %v", d.name, err))
		}
		d.dirty[block] = true
	}
	d.committed[t.id] = true
	d.commits++
	return nil
}
