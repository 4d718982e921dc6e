package db

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// roomAt returns the offset of pg's first byte in the arena's current chunk,
// or -1 when pg lies in another chunk.
func roomAt(d *DB, pg []byte) int {
	chunk := d.arena[:cap(d.arena)]
	for off := range chunk {
		if &chunk[off] == &pg[0] {
			return off
		}
	}
	return -1
}

// freshDB opens a database on a never-written 256-block volume of the array.
func freshDB(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID) (*DB, *storage.Volume) {
	vol, err := a.CreateVolume(id, 256)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := Open(p, string(id), vol, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return d, vol
}

// A page that needs a slot its room has not got moves to a new room carved
// behind the others, and nothing else in the arena moves or changes: the room
// it left keeps its bytes, and so do a value Get lent from that room before
// the move, the neighbouring page carved next to it in the same chunk, and
// every page Checkpoint handed to the volume — through later carves, a
// rewrite of the moved row and a second checkpoint. No room is carved twice.
func TestAPageThatOutgrowsItsRoomLeavesItIntact(t *testing.T) {
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		d, vol := freshDB(t, p, a, "sales")
		n := uint64(d.dataPages)
		commit := func(key uint64, val string) {
			t.Helper()
			tx := d.Begin()
			tx.Put(key, []byte(val))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		commit(3, "handed")
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		commit(1, "one")
		commit(2, "two")
		room, next := d.owned[d.pageBlock(1)], d.owned[d.pageBlock(2)]
		if roomAt(d, vol.Peek(d.pageBlock(3))) != 0 || roomAt(d, room) != slotSize || roomAt(d, next) != 2*slotSize {
			t.Fatalf("the handed-over page, key 1's and key 2's rooms sit at %d, %d, %d of one chunk; want 0, %d, %d",
				roomAt(d, vol.Peek(d.pageBlock(3))), roomAt(d, room), roomAt(d, next), slotSize, 2*slotSize)
		}
		for _, pg := range [][]byte{room, next} {
			if len(pg) != slotSize || cap(pg) != slotSize {
				t.Fatalf("a fresh page's room is %d bytes with capacity %d; want its one slot", len(pg), cap(pg))
			}
		}
		lent, _, _ := d.Get(p, 1)
		type kept struct {
			what string
			get  func() []byte
			want []byte
		}
		var held []kept
		keep := func(what string, get func() []byte) {
			held = append(held, kept{what, get, bytes.Clone(get())})
		}
		keep("room key 1 moved out of", func() []byte { return room })
		keep("value Get lent before the move", func() []byte { return lent })
		keep("neighbouring page", func() []byte { return next })
		keep("page the first checkpoint handed over", func() []byte { return vol.Peek(d.pageBlock(3)) })
		check := func(stage string) {
			t.Helper()
			for _, h := range held {
				if got := h.get(); !bytes.Equal(got, h.want) || cap(got) != len(h.want) {
					t.Fatalf("after %s: the %s changed: %d bytes with capacity %d, want the %d it held",
						stage, h.what, len(got), cap(got), len(h.want))
				}
			}
		}

		commit(1+n, "grows") // key 1's page needs a second slot: it moves
		moved := d.owned[d.pageBlock(1)]
		if &moved[0] == &room[0] || len(moved) != 2*slotSize || cap(moved) != 2*slotSize {
			t.Fatalf("key 1's page holds %d bytes with capacity %d, moved %v; want two slots in a new room of two",
				len(moved), cap(moved), &moved[0] != &room[0])
		}
		check("the move")
		commit(4, "carved after the move")
		commit(1, "rewritten")
		check("a carve and a rewrite of the moved row")
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		keep("page the second checkpoint handed over", func() []byte { return vol.Peek(d.pageBlock(1)) })
		commit(1, "after the second checkpoint")
		commit(5, "carved after the second checkpoint")
		check("the second checkpoint and two more commits")
		for key, want := range map[uint64]string{1: "after the second checkpoint", 1 + n: "grows", 2: "two", 3: "handed", 4: "carved after the move"} {
			if v, ok, _ := d.Get(p, key); !ok || string(v) != want {
				t.Fatalf("key %d reads %q, %v; want %q", key, v, ok, want)
			}
		}
	})
}

// A commit's room holds what the page needs and one slot more: 128 bytes for
// a fresh page, then 256 and 512 as it gains slots, never past the block —
// whose four slots fill it, so a fifth key is refused. Arena chunks double
// from one block to 64 and stay there.
func TestCommitRoomsDoubleToABlock(t *testing.T) {
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		d, _ := freshDB(t, p, a, "stock")
		n := uint64(d.dataPages)
		for i, want := range []int{slotSize, 2 * slotSize, 4 * slotSize, 4 * slotSize} {
			tx := d.Begin()
			tx.Put(7+uint64(i)*n, []byte{byte(i)})
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
			if pg := d.owned[d.pageBlock(7)]; len(pg) != (i+1)*slotSize || cap(pg) != want {
				t.Fatalf("after %d rows the page is %d bytes in a room of %d; want %d in %d", i+1, len(pg), cap(pg), (i+1)*slotSize, want)
			}
		}
		tx := d.Begin()
		tx.Put(7+4*n, []byte{4})
		if err := tx.Commit(p); !errors.Is(err, ErrPageFull) {
			t.Fatalf("a fifth key on a 512-byte page: %v, want ErrPageFull", err)
		}
		var chunks []int
		for range 300 {
			if c := cap(d.arena); len(chunks) == 0 || chunks[len(chunks)-1] != c {
				chunks = append(chunks, c)
			}
			d.carve(nil, d.blockSize)
		}
		// The page's third room (512 B) did not fit in the first chunk (one
		// block); the carves after it fill the chunks that follow.
		want := []int{2 * 512, 4 * 512, 8 * 512, 16 * 512, 32 * 512, 64 * 512}
		if !slices.Equal(chunks, want) {
			t.Fatalf("arena chunks %v; want %v", chunks, want)
		}
	})
}

// BenchmarkTxnCommitFreshPages: one op is the fleet's order — a sales commit
// of one 16-byte row, then a stock commit of two — where every row lands on a
// never-written 512-byte page. A fleet tenant's databases are fresh and take
// 8 orders, so each pair of databases here does too; opening the next pair
// is outside the timer. BenchmarkTxnCommit's warm pages cannot show what a
// commit's first write to a page costs.
func BenchmarkTxnCommitFreshPages(b *testing.B) {
	const orders = 8 // per pair of databases: 8 sales pages, 16 stock pages
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		val := make([]byte, 16)
		var sales, stock *DB
		commit := func(d *DB, id uint64, keys ...uint64) {
			tx := d.BeginWithID(id)
			for _, k := range keys {
				tx.Put(k, val)
			}
			if err := tx.Commit(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			o := uint64(i % orders)
			if o == 0 {
				b.StopTimer()
				a.DeleteVolume("sales")
				a.DeleteVolume("stock")
				sales, _ = freshDB(b, p, a, "sales")
				stock, _ = freshDB(b, p, a, "stock")
				b.StartTimer()
			}
			commit(sales, o+1, o+1)
			commit(stock, o+1, 2*o+1, 2*o+2)
		}
	})
}
