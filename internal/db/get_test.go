package db

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// lender is what Get is read through: a DB or a View.
type lender interface {
	Get(p *sim.Proc, key uint64) ([]byte, bool, error)
	loadPage(p *sim.Proc, block int64) ([]byte, error)
	pageBlock(key uint64) int64
}

// commitRow commits one row in a transaction of its own.
func commitRow(tb testing.TB, p *sim.Proc, d *DB, key uint64, val string) {
	tb.Helper()
	tx := d.Begin()
	if err := tx.Put(key, []byte(val)); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(p); err != nil {
		tb.Fatal(err)
	}
}

// Get lends: a hit allocates nothing and returns the row's bytes in the page
// that holds it, capped at their length, so an append copies instead of
// writing into the page. Whichever page the row is on — one a commit owns, a
// clean one read singly or preloaded by Scan, one a View redid — the lent value
// is the page's. One lent from a clean page or a View keeps its bytes through a
// commit that rewrites the key and the checkpoint after it.
func TestGetLendsTheRowInItsPage(t *testing.T) {
	const key = 7
	for _, c := range []struct {
		name string
		// open returns the reader to Get key from, on a volume whose one
		// checkpointed row is key's; writer is the database whose commit
		// rewrites it.
		open   func(t *testing.T, p *sim.Proc, a *storage.Array, writer *DB) lender
		stable bool // the lent value outlives a commit and a checkpoint
	}{
		{"owned page", func(t *testing.T, p *sim.Proc, a *storage.Array, writer *DB) lender {
			commitRow(t, p, writer, key, "owned")
			return writer
		}, false},
		{"clean page read singly", func(t *testing.T, p *sim.Proc, a *storage.Array, writer *DB) lender {
			return writer
		}, true},
		{"scan-preloaded region", func(t *testing.T, p *sim.Proc, a *storage.Array, writer *DB) lender {
			if err := writer.Scan(p, func(Row) bool { return true }); err != nil {
				t.Fatal(err)
			}
			return writer
		}, true},
		{"view", func(t *testing.T, p *sim.Proc, a *storage.Array, writer *DB) lender {
			commitRow(t, p, writer, key, "in the log") // the view redoes it into its own page
			snap, err := a.CreateSnapshot("s", "v")
			if err != nil {
				t.Fatal(err)
			}
			v, err := OpenView(p, "view", snap, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			inProcess(func(p *sim.Proc, a *storage.Array) {
				vol, err := a.CreateVolume("v", 256)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Open(p, "v", vol, Config{})
				if err != nil {
					t.Fatal(err)
				}
				commitRow(t, p, d, key, "checkpointed")
				if err := d.Checkpoint(p); err != nil {
					t.Fatal(err)
				}
				if d, err = Open(p, "v", vol, Config{}); err != nil { // nothing cached
					t.Fatal(err)
				}
				r := c.open(t, p, a, d)
				val, ok, err := r.Get(p, key)
				if err != nil || !ok {
					t.Fatalf("get = %q, %v, %v", val, ok, err)
				}
				page, _ := r.loadPage(p, r.pageBlock(key)) // cached by the Get: reads nothing, cannot fail
				at, _, _ := pageFind(page, key)
				if &val[0] != &page[at+19] || cap(val) != len(val) {
					t.Fatalf("get lent %d bytes of capacity %d, at the page's row: %v; want the row's bytes in the page, capped",
						len(val), cap(val), &val[0] == &page[at+19])
				}
				if allocs := testing.AllocsPerRun(100, func() { r.Get(p, key) }); allocs != 0 {
					t.Fatalf("a hit allocated %v times, want 0", allocs)
				}
				was := bytes.Clone(page)
				_ = append(val, "appended"...)
				if !bytes.Equal(page, was) {
					t.Fatal("an append to the lent value wrote into the page")
				}
				if !c.stable {
					return
				}
				lent := bytes.Clone(val)
				commitRow(t, p, d, key, "rewritten")
				if !bytes.Equal(val, lent) {
					t.Fatalf("a commit rewriting the key changed the lent value to %q", val)
				}
				if err := d.Checkpoint(p); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(val, lent) {
					t.Fatalf("the checkpoint after it changed the lent value to %q", val)
				}
			})
		})
	}
}

// BenchmarkGet: one op is a Get on a database whose pages are cached — a hit
// on a page a commit owns, a hit on a clean page (the volume's own slice), and
// a miss on that clean page.
func BenchmarkGet(b *testing.B) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		vol, err := a.CreateVolume("v", 256)
		if err != nil {
			b.Fatal(err)
		}
		d, err := Open(p, "v", vol, Config{})
		if err != nil {
			b.Fatal(err)
		}
		const clean, owned = 1, 2
		commitRow(b, p, d, clean, "sixteen byte row")
		if err := d.Checkpoint(p); err != nil {
			b.Fatal(err)
		}
		commitRow(b, p, d, owned, "sixteen byte row")
		for _, c := range []struct {
			name  string
			key   uint64
			found bool
		}{
			{"owned", owned, true},
			{"clean", clean, true},
			{"miss", clean + uint64(d.dataPages), false}, // clean's page, not on it
		} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, found, err := d.Get(p, c.key); err != nil || found != c.found {
						b.Fatalf("get %d: found %v, %v", c.key, found, err)
					}
				}
			})
		}
	})
}
