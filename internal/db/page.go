package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Data pages are fixed-slot hash pages: a key hashes to one page, and the
// row occupies the first free slot (or its existing slot on update). Slot
// layout: flags(1) + key(8) + txid(8) + vallen(2) + val[MaxValLen].
//
// A page is the prefix of its occupied slots. No slot is ever freed, so an
// upsert that finds none free inside the prefix appends one, and the rest of
// the block reads as zeroes: a page is stored, cached and redone at the length
// it uses, up to a whole block.
const (
	// MaxValLen is the largest value a row can hold.
	MaxValLen = 109
	slotSize  = 1 + 8 + 8 + 2 + MaxValLen // 128 bytes
	slotUsed  = 0x01
)

// Page-level errors.
var (
	// ErrPageFull reports that a key's home page has no free slot.
	ErrPageFull = errors.New("db: page full")
	// ErrValTooLarge reports a value over MaxValLen bytes.
	ErrValTooLarge = errors.New("db: value too large")
	// ErrZeroKey reports key 0, which is reserved.
	ErrZeroKey = errors.New("db: key must be nonzero")
)

// Row is one stored record.
type Row struct {
	Key  uint64
	TxID uint64 // transaction that last wrote the row
	Val  []byte
}

func slotsPerPage(blockSize int) int { return blockSize / slotSize }

// pageFind scans the page for key: the offset of its slot (-1 if absent),
// and — when absent — the offset of the first free slot (-1 if none) and the
// number of slots other keys occupy. A nil page (never written) stands for a
// zero page: it has no slot to return, and none is occupied.
func pageFind(page []byte, key uint64) (at, free, used int) {
	free = -1
	for off := 0; off+slotSize <= len(page); off += slotSize {
		if page[off]&slotUsed == 0 {
			if free < 0 {
				free = off
			}
		} else if binary.LittleEndian.Uint64(page[off+1:off+9]) == key {
			return off, free, used
		} else {
			used++
		}
	}
	return -1, free, used
}

// pageLookup returns key's row and whether it exists. Val points into the
// page, capped at its length.
func pageLookup(page []byte, key uint64) (Row, bool) {
	at, _, _ := pageFind(page, key)
	if at < 0 {
		return Row{}, false
	}
	return slotRow(page, at), true
}

// pageUpsert writes the row into its existing slot, the first free one, or a
// slot appended to the page while the block has room, and returns the page.
// The append stays in the page's room while its capacity allows; past it, it
// copies. Its callers size the room first: the replay for its whole redo, a
// commit for the one slot it may append (DB.writablePage).
func pageUpsert(page []byte, row Row, blockSize int) ([]byte, error) {
	if row.Key == 0 {
		return page, ErrZeroKey
	}
	if len(row.Val) > MaxValLen {
		return page, fmt.Errorf("%w: %d > %d", ErrValTooLarge, len(row.Val), MaxValLen)
	}
	at, free, _ := pageFind(page, row.Key)
	if at < 0 {
		at = free
	}
	if at < 0 {
		if at = len(page); at+slotSize > blockSize {
			return page, fmt.Errorf("%w: key %d", ErrPageFull, row.Key)
		}
		page = slices.Grow(page, slotSize)[:at+slotSize] // encodeSlot writes every byte of it
	}
	encodeSlot(page, at, row)
	return page, nil
}

// pageEach calls fn with every occupied row in slot order until fn returns
// false, which it reports by returning false itself. Row.Val points into
// the page. A nil page (never written) holds no rows.
func pageEach(page []byte, fn func(Row) bool) bool {
	n := slotsPerPage(len(page))
	for i := 0; i < n; i++ {
		off := i * slotSize
		if page[off]&slotUsed == 0 {
			continue
		}
		if !fn(slotRow(page, off)) {
			return false
		}
	}
	return true
}

func encodeSlot(page []byte, off int, row Row) {
	page[off] = slotUsed
	binary.LittleEndian.PutUint64(page[off+1:off+9], row.Key)
	binary.LittleEndian.PutUint64(page[off+9:off+17], row.TxID)
	binary.LittleEndian.PutUint16(page[off+17:off+19], uint16(len(row.Val)))
	clear(page[off+19 : off+19+MaxValLen])
	copy(page[off+19:], row.Val)
}

// slotRow decodes the slot at off. Val points into the page.
func slotRow(page []byte, off int) Row {
	vlen := int(binary.LittleEndian.Uint16(page[off+17 : off+19]))
	if vlen > MaxValLen {
		vlen = MaxValLen
	}
	return Row{
		Key:  binary.LittleEndian.Uint64(page[off+1 : off+9]),
		TxID: binary.LittleEndian.Uint64(page[off+9 : off+17]),
		Val:  page[off+19 : off+19+vlen : off+19+vlen],
	}
}
