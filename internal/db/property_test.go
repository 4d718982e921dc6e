package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/storage"
)

// recoverBothDoors opens the crashed image read-only, then recovers it, and
// requires the two doors — one reader behind both — to agree on what the image
// holds: the committed set, the count redone, the torn-tail flag, every row,
// and the reads the open charged (recovery's checkpoint only writes). It
// returns the recovered database; an image OpenView refuses is not recovered.
func recoverBothDoors(p *sim.Proc, a *storage.Array, vol *storage.Volume, cfg Config) (*DB, error) {
	rowsOf := func(scan func(*sim.Proc, func(Row) bool) error) (rows []string) {
		scan(p, func(r Row) bool {
			rows = append(rows, fmt.Sprintf("%d@%d=%x", r.Key, r.TxID, r.Val))
			return true
		})
		return rows
	}
	before := a.ReadOps()
	view, err := OpenView(p, "view", vol, cfg)
	if err != nil {
		return nil, err
	}
	viewReads := a.ReadOps() - before
	viewRows := rowsOf(view.Scan)
	before = a.ReadOps()
	d, err := Open(p, "x", vol, cfg)
	if err != nil {
		return nil, err
	}
	switch dbReads := a.ReadOps() - before; {
	case !slices.Equal(view.CommittedTxns(), d.CommittedTxns()):
		return nil, fmt.Errorf("committed: view %v, db %v", view.CommittedTxns(), d.CommittedTxns())
	case view.RecoveredTxns() != d.RecoveredTxns() || view.SawTornTail() != d.SawTornTail():
		return nil, fmt.Errorf("redone/torn tail: view %d/%v, db %d/%v",
			view.RecoveredTxns(), view.SawTornTail(), d.RecoveredTxns(), d.SawTornTail())
	case viewReads != dbReads:
		return nil, fmt.Errorf("open charged the view %d reads and the db %d", viewReads, dbReads)
	case !slices.Equal(viewRows, rowsOf(d.Scan)):
		return nil, fmt.Errorf("rows: view %v, db %v", viewRows, rowsOf(d.Scan))
	}
	return d, nil
}

// TestCrashRecoveryProperty is the database's central invariant: after a
// crash at ANY point, recovery yields exactly the committed transactions —
// every committed key holds its last committed value, and no uncommitted
// write is visible. The generator interleaves commits, transactions dropped
// before Commit, checkpoints and crashes at random.
func TestCrashRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(seed)
		a := storage.NewArray(env, "arr", storage.Config{})
		vol, _ := a.CreateVolume("v", 300)
		cfg := Config{WALBlocks: 8}

		// model holds the last COMMITTED value per key.
		model := map[uint64][]byte{}
		ok := true
		env.Process("chaos", func(p *sim.Proc) {
			d, err := Open(p, "x", vol, cfg)
			if err != nil {
				ok = false
				return
			}
			steps := 30 + rng.Intn(40)
			for s := 0; s < steps; s++ {
				switch op := rng.Intn(10); {
				case op < 6: // transaction with 1-3 updates
					tx := d.Begin()
					n := 1 + rng.Intn(3)
					staged := map[uint64][]byte{}
					for i := 0; i < n; i++ {
						key := uint64(rng.Intn(40)) + 1
						val := []byte(fmt.Sprintf("s%d-%d", s, i))
						if err := tx.Put(key, val); err != nil {
							ok = false
							return
						}
						staged[key] = val
					}
					if rng.Intn(5) == 0 {
						continue // dropped uncommitted
					}
					if err := tx.Commit(p); err != nil {
						ok = false
						return
					}
					for k, v := range staged {
						model[k] = v
					}
				case op < 7: // explicit checkpoint
					if err := d.Checkpoint(p); err != nil {
						ok = false
						return
					}
				default: // crash: drop the handle, recover, verify
					d2, err := recoverBothDoors(p, a, vol, cfg)
					if err != nil {
						t.Logf("seed %d step %d: %v", seed, s, err)
						ok = false
						return
					}
					for k, want := range model {
						got, found, err := d2.Get(p, k)
						if err != nil || !found || !bytes.Equal(got, want) {
							ok = false
							return
						}
					}
					// No phantom keys.
					rows := 0
					d2.Scan(p, func(r Row) bool { rows++; return true })
					if rows != len(model) {
						ok = false
						return
					}
					d = d2
				}
			}
		})
		env.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFromReplicatedImageProperty checks the property E6 depends
// on: for any prefix cut of a volume's journal applied to a twin, opening
// the twin recovers a prefix of the committed transactions (never a
// superset, never a hole).
func TestRecoveryFromReplicatedImageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(seed)
		a := storage.NewArray(env, "arr", storage.Config{})
		src, _ := a.CreateVolume("src", 300)
		twin, _ := a.CreateVolume("twin", 300)
		sj, _ := a.CreateConsistencyGroup("j", []storage.VolumeID{"src"}, 1)
		j := sj.Shards()[0]
		cfg := Config{WALBlocks: 8}

		var commitSeq []uint64
		ok := true
		env.Process("run", func(p *sim.Proc) {
			d, err := Open(p, "x", src, cfg)
			if err != nil {
				ok = false
				return
			}
			nTxns := 5 + rng.Intn(20)
			for i := 0; i < nTxns; i++ {
				tx := d.Begin()
				tx.Put(uint64(rng.Intn(30))+1, []byte{byte(i)})
				if err := tx.Commit(p); err != nil {
					ok = false
					return
				}
				commitSeq = append(commitSeq, tx.id)
			}
			// Apply a random prefix of the journal to the twin.
			recs := j.TryTakeInto(nil, 0)
			cut := rng.Intn(len(recs) + 1)
			for _, rec := range recs[:cut] {
				if err := twin.Apply(p, rec.Block, rec.Data); err != nil {
					ok = false
					return
				}
			}
			// Recover the twin; its committed set must be a prefix.
			re, err := recoverBothDoors(p, a, twin, cfg)
			if err != nil {
				// An entirely unwritten twin (cut before the superblock
				// write) is legitimately unformatted.
				if ok = cut == 0 && errors.Is(err, ErrNotFormatted); !ok {
					t.Logf("seed %d cut %d: %v", seed, cut, err)
				}
				return
			}
			recovered := re.CommittedTxns()
			if len(recovered) > len(commitSeq) {
				ok = false
				return
			}
			for i, txid := range recovered {
				if commitSeq[i] != txid {
					ok = false
					return
				}
			}
		})
		env.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
