package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The page table holds every read to a map model: random inserts and
// overwrites of blocks drawn from spans narrower and wider than the table
// (so probes wrap and collide), through every doubling from the empty table,
// each followed by a lookup of the block set and of a random one, and after
// each span a walk of the whole table. Overwriting every page it holds
// allocates nothing, and the n pages took one allocation per table size they
// passed through.
func TestPageTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	same := func(g, w page) bool { return g.owned == w.owned && bytes.Equal(g.data, w.data) }
	for _, span := range []int64{6, 64, 1000, 1 << 20} {
		name := fmt.Sprintf("blocks 1..%d", span)
		var tbl pageTable
		model := map[int64]page{}
		for step := range 3000 {
			b := 1 + rng.Int63n(span)
			pg := page{data: []byte(fmt.Sprint(step)), owned: rng.Intn(2) == 0}
			tbl.set(b, pg)
			model[b] = pg
			for _, q := range []int64{b, 1 + rng.Int63n(2*span)} {
				g, ok := tbl.get(q)
				w, want := model[q]
				if ok != want || !same(g, w) {
					t.Fatalf("%s, step %d: get(%d) = %v %q %v; model %v %q %v", name, step, q, ok, g.data, g.owned, want, w.data, w.owned)
				}
			}
		}
		walked := 0
		for b, g := range tbl.all {
			if w, ok := model[b]; !ok || !same(g, w) {
				t.Fatalf("%s: all yields block %d (%q %v); model has %v %q %v", name, b, g.data, g.owned, ok, w.data, w.owned)
			}
			walked++
		}
		if walked != len(model) || tbl.n != len(model) || len(tbl.slots) != len(makePageTable(len(model)).slots) {
			t.Fatalf("%s: %d pages walked, %d counted in %d slots; model %d pages, which fit %d slots",
				name, walked, tbl.n, len(tbl.slots), len(model), len(makePageTable(len(model)).slots))
		}
		if allocs := testing.AllocsPerRun(1, func() {
			for b, pg := range model {
				tbl.set(b, pg)
			}
		}); allocs != 0 {
			t.Fatalf("%s: overwriting %d pages allocated %v times; want 0", name, len(model), allocs)
		}
		var fresh pageTable
		sizes := 0
		for size := 8; size <= len(tbl.slots); size *= 2 {
			sizes++
		}
		if allocs := testing.AllocsPerRun(1, func() {
			fresh = pageTable{}
			for b, pg := range model {
				fresh.set(b, pg)
			}
		}); allocs != float64(sizes) {
			t.Fatalf("%s: inserting %d pages allocated %v times; want one per table size, %d", name, len(model), allocs, sizes)
		}
	}
}
