package db

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/storage"
)

// smallPageDB opens a database on 512-byte blocks (4 slots per page) with
// dataPages data pages, so a handful of keys fills a page.
func smallPageDB(t *testing.T, seed int64, dataPages int64, fn func(p *sim.Proc, vol *storage.Volume, d *DB)) {
	t.Helper()
	const walBlocks = 8
	env := sim.NewEnv(seed)
	a := storage.NewArray(env, "arr", storage.Config{BlockSize: 512})
	vol, err := a.CreateVolume("v", 1+walBlocks+dataPages)
	if err != nil {
		t.Fatal(err)
	}
	env.Process("test", func(p *sim.Proc) {
		d, err := Open(p, "sales", vol, Config{WALBlocks: walBlocks})
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, vol, d)
	})
	env.Run(0)
}

// One transaction putting two absent keys whose home page has one free slot
// used to pass the per-row probe (each row was tried against a fresh copy of
// the clean page), flush its WAL records, and then panic applying the second
// row — leaving a committed transaction no recovery could ever redo. The fit
// check counts the transaction's earlier rows and refuses before logging.
func TestCommitRejectsTxnOverfillingPageBeforeLogging(t *testing.T) {
	const dataPages = 5
	smallPageDB(t, 1, dataPages, func(p *sim.Proc, vol *storage.Volume, d *DB) {
		const k = 2
		for i := uint64(0); i < 3; i++ { // 3 of the page's 4 slots
			tx := d.Begin()
			tx.Put(k+i*dataPages, []byte("held"))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		walWrites, volWrites, commits := d.WALWrites(), vol.Writes(), d.Commits()

		tx := d.Begin()
		tx.Put(k+3*dataPages, []byte("fits"))
		tx.Put(k+4*dataPages, []byte("does not"))
		if err := tx.Commit(p); !errors.Is(err, ErrPageFull) {
			t.Fatalf("commit of two absent keys into one free slot: err = %v, want ErrPageFull", err)
		}
		if d.WALWrites() != walWrites || vol.Writes() != volWrites || d.Commits() != commits {
			t.Fatalf("the refused transaction reached the log: WAL writes %d→%d, volume writes %d→%d, commits %d→%d",
				walWrites, d.WALWrites(), volWrites, vol.Writes(), commits, d.Commits())
		}
		if d.HasCommitted(tx.id) {
			t.Fatal("the refused transaction is recorded as committed")
		}
		if _, found, _ := d.Get(p, k+3*dataPages); found {
			t.Fatal("a row of the refused transaction is visible")
		}

		// Still usable: the last slot takes one key, an existing key updates
		// in place beside a repeated absent key (one slot, claimed once).
		tx = d.Begin()
		tx.Put(k+3*dataPages, []byte("first"))
		tx.Put(k, []byte("updated"))
		tx.Put(k+3*dataPages, []byte("last"))
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit after the refusal: %v", err)
		}
		// And recoverable: nothing of the refused transaction is in the log.
		d2, err := Open(p, "sales", vol, Config{WALBlocks: 8})
		if err != nil {
			t.Fatalf("recovery after the refusal: %v", err)
		}
		for key, want := range map[uint64]string{k: "updated", k + dataPages: "held", k + 3*dataPages: "last"} {
			if v, found, _ := d2.Get(p, key); !found || string(v) != want {
				t.Fatalf("recovered key %d = %q (found %v), want %q", key, v, found, want)
			}
		}
		if _, found, _ := d2.Get(p, k+4*dataPages); found {
			t.Fatal("recovery resurrected the refused row")
		}
	})
}

// The read-only fit check must decide exactly what applying the rows one
// after another to copies of their pages decides — for random page contents
// and random row sets with repeated, present and absent keys — and a commit
// it lets through must leave exactly the pages that reference left.
func TestCommitFitCheckAgreesWithUpsertOnACopy(t *testing.T) {
	var accepted, refused int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ok := true
		const dataPages = 3
		smallPageDB(t, seed, dataPages, func(p *sim.Proc, vol *storage.Volume, d *DB) {
			key := func() uint64 { return uint64(1 + rng.Intn(8*dataPages)) }
			for i := rng.Intn(14); i > 0; i-- { // random committed contents
				tx := d.Begin()
				tx.Put(key(), []byte{byte(i)})
				if err := tx.Commit(p); err != nil && !errors.Is(err, ErrPageFull) {
					t.Error(err)
					ok = false
					return
				}
			}
			for round := 0; round < 6 && ok; round++ {
				tx := d.Begin()
				for n := 1 + rng.Intn(6); n > 0; n-- {
					tx.Put(key(), []byte{byte(round), byte(n)})
				}
				// Reference: upsert the rows in order into copies of the pages.
				// A page is loaded once, on its first row: presence, not nil,
				// says so, since a copy of a never-written page is empty.
				ref := map[int64][]byte{}
				var want error
				rows, vals := tx.buffered()
				for _, u := range rows {
					b := d.pageBlock(u.key)
					if _, loaded := ref[b]; !loaded {
						pg, _ := d.loadPage(p, b)
						ref[b] = bytes.Clone(pg) // a clean page may be nil, and its copy too
					}
					if ref[b], want = pageUpsert(ref[b], Row{Key: u.key, TxID: tx.id, Val: u.val(vals)}, d.blockSize); want != nil {
						break
					}
				}
				walWrites := d.WALWrites()
				got := tx.Commit(p)
				if got == nil {
					accepted++
				} else {
					refused++
				}
				switch {
				case (got == nil) != (want == nil) || (want != nil && !errors.Is(got, ErrPageFull)):
					t.Errorf("seed %d round %d: commit err = %v, upsert-on-a-copy err = %v", seed, round, got, want)
					ok = false
				case got != nil && d.WALWrites() != walWrites:
					t.Errorf("seed %d round %d: refused transaction wrote the WAL", seed, round)
					ok = false
				case got == nil:
					for b, pg := range ref {
						if !bytes.Equal(d.pages[b].data, pg) {
							t.Errorf("seed %d round %d: page %d differs from the reference after commit", seed, round, b)
							ok = false
						}
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if accepted < 100 || refused < 100 {
		t.Fatalf("generator is one-sided: %d commits accepted, %d refused", accepted, refused)
	}
}
