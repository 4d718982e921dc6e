package db

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/wal"
)

// Inline capacity of a Txn, sized from the traffic that exists: the shop
// workload commits 1 sales row or up to 2 stock rows of 16-byte values, the
// demos one row of at most 25 bytes.
const (
	txnInlineRows = 2
	txnInlineVals = 32
)

// txnRow is one buffered upsert. Its value is [off, off+n) of the
// transaction's value storage — an offset, not a slice, so a Txn holds no
// pointer into itself and stays on the stack of a caller it does not escape.
type txnRow struct {
	key    uint64
	off, n int
}

func (u txnRow) val(vals []byte) []byte { return vals[u.off : u.off+u.n] }

// Txn buffers a transaction's updates until Commit. Updates are not visible
// to reads until Commit returns — the deferred-update discipline that keeps
// uncommitted data off disk; a Txn dropped before Commit wrote nothing. A Txn
// carries its own copies of the rows it was given: a small transaction's in
// the inline arrays (Put allocates nothing), a larger one's all in the one
// growable spill arena.
type Txn struct {
	db   *DB
	id   uint64
	done bool

	nrows, nvals int // used part of the inline arrays
	rowArr       [txnInlineRows]txnRow
	valArr       [txnInlineVals]byte
	rows         []txnRow // non-nil once spilled: every row, values in vals
	vals         []byte
}

// buffered returns the updates in Put order and the storage their values index.
func (t *Txn) buffered() ([]txnRow, []byte) {
	if t.rows != nil {
		return t.rows, t.vals
	}
	return t.rowArr[:t.nrows], t.valArr[:t.nvals]
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

// Put buffers an upsert of key to a copy of val; the caller keeps its buffer.
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
	if t.rows == nil && t.nrows < txnInlineRows && t.nvals+len(val) <= txnInlineVals {
		t.rowArr[t.nrows] = txnRow{key: key, off: t.nvals, n: len(val)}
		t.nrows++
		t.nvals += copy(t.valArr[t.nvals:], val)
		return nil
	}
	if t.rows == nil { // outgrew the inline arrays: everything moves to the arena
		t.rows = append(make([]txnRow, 0, 4*txnInlineRows), t.rowArr[:t.nrows]...)
		t.vals = append(make([]byte, 0, 4*txnInlineVals+len(val)), t.valArr[:t.nvals]...)
	}
	t.rows = append(t.rows, txnRow{key: key, off: len(t.vals), n: len(val)})
	t.vals = append(t.vals, val...)
	return nil
}

// record returns the transaction's i-th WAL record, stamped with the
// database's current epoch: its updates in Put order, then its commit record.
func (t *Txn) record(i int) wal.Record {
	rows, vals := t.buffered()
	if i == len(rows) {
		return wal.Record{Type: wal.TypeCommit, Epoch: t.db.epoch, TxID: t.id}
	}
	u := rows[i]
	return wal.Record{Type: wal.TypeUpdate, Epoch: t.db.epoch, TxID: t.id, Key: u.key, Val: u.val(vals)}
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
	rows, vals := t.buffered()
	claims := make([]uint64, 0, 8) // absent keys granted a slot so far, distinct; stays on the stack
	for _, u := range rows {
		block := d.pageBlock(u.key)
		page, err := d.loadPage(p, block)
		if err != nil {
			return err
		}
		at, _, used := pageFind(page, u.key)
		if at >= 0 || slices.Contains(claims, u.key) {
			continue
		}
		free := slotsPerPage(d.blockSize) - used // of the whole block: the page is a prefix of it
		for _, c := range claims {
			if d.pageBlock(c) == block {
				free--
			}
		}
		if free <= 0 {
			return fmt.Errorf("%w: key %d", ErrPageFull, u.key)
		}
		claims = append(claims, u.key)
	}
	// Size the log entries before encoding anything, so the fit check (and
	// any checkpoint it forces) happens first and the records are encoded
	// exactly once, with the final epoch.
	sizes := d.sizeArr[:0]
	var totalBytes int
	for i := range len(rows) + 1 {
		n := t.record(i).EncodedSize()
		if n > d.walCapacity() {
			return fmt.Errorf("%w: record %d bytes", ErrTxnTooLarge, n)
		}
		sizes = append(sizes, n)
		totalBytes += n
	}
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
	if err := d.flushWAL(p, t, sizes); err != nil {
		return err
	}
	// The transaction is durable; apply to memory pages (no-force).
	for _, u := range rows {
		block := d.pageBlock(u.key)
		pg, err := pageUpsert(d.writablePage(block, u.key), Row{Key: u.key, TxID: t.id, Val: u.val(vals)}, d.blockSize)
		if err != nil {
			// The fit check above guaranteed room; this indicates a bug.
			panic(fmt.Sprintf("db: %s: post-log upsert failed: %v", d.name, err))
		}
		d.pages.set(block, page{data: pg, owned: true})
	}
	// IDs mostly arrive in order: one past the last entry is appended unsearched.
	if n := len(d.committed); n == 0 || d.committed[n-1] < t.id {
		if d.committed == nil {
			d.committed = make([]uint64, 0, 8) // a benchmark fleet tenant's 8 orders; a longer run grows it by appends
		}
		d.committed = append(d.committed, t.id)
	} else if i, found := slices.BinarySearch(d.committed, t.id); !found {
		d.committed = slices.Insert(d.committed, i, t.id)
	}
	d.commits++
	return nil
}
