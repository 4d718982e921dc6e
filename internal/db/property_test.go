package db

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
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
// and the reads the open charged (recovery's checkpoint only writes). A second
// view, opened beside the first but read only after the recovery checkpointed
// the image, must agree too: its redo, run at that first read, works from
// what its open read. It returns the recovered database; an image OpenView
// refuses is not recovered.
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
	late, err := OpenView(p, "late", vol, cfg)
	if err != nil {
		return nil, err
	}
	before = a.ReadOps()
	d, err := Open(p, "x", vol, cfg)
	if err != nil {
		return nil, err
	}
	dbReads := a.ReadOps() - before
	for _, v := range []struct {
		door string
		*View
		rows []string
	}{{"view", view, viewRows}, {"view read after the recovery", late, rowsOf(late.Scan)}} {
		switch {
		case !slices.Equal(v.CommittedTxns(), d.CommittedTxns()):
			return nil, fmt.Errorf("committed: %s %v, db %v", v.door, v.CommittedTxns(), d.CommittedTxns())
		case v.RecoveredTxns() != d.RecoveredTxns() || v.SawTornTail() != d.SawTornTail():
			return nil, fmt.Errorf("redone/torn tail: %s %d/%v, db %d/%v",
				v.door, v.RecoveredTxns(), v.SawTornTail(), d.RecoveredTxns(), d.SawTornTail())
		case viewReads != dbReads:
			return nil, fmt.Errorf("open charged the view %d reads and the db %d", viewReads, dbReads)
		case !slices.Equal(v.rows, rowsOf(d.Scan)):
			return nil, fmt.Errorf("rows: %s %v, db %v", v.door, v.rows, rowsOf(d.Scan))
		}
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
				if err := twin.Apply(p, int64(rec.Block), rec.Data); err != nil {
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

// TestOutOfOrderCommitsRecoverThroughBothDoors commits BeginWithID
// transactions whose IDs are shuffled and whose lives interleave — up to four
// open at once, each committed or dropped in random order — over a log many
// WAL blocks long on 512-byte blocks, so the replay's and Txn.Commit's lookups
// of the committed set miss the entry they look at first. The live committed
// set must list exactly the committed IDs; a crash image, and the same image
// with its last WAL write torn, must open through both doors alike
// (recoverBothDoors: committed set, RecoveredTxns, torn flag, every row, also
// of a view read only after the recovery), the
// first to every committed ID and row, the torn one to all but the last
// commit.
func TestOutOfOrderCommitsRecoverThroughBothDoors(t *testing.T) {
	cfg := Config{}
	inProcessOn(storage.Config{BlockSize: 512}, func(p *sim.Proc, a *storage.Array) {
		for seed := range int64(20) {
			rng := rand.New(rand.NewSource(seed))
			vol, err := a.CreateVolume(storage.VolumeID(fmt.Sprint("src", seed)), 256)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Open(p, "src", vol, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := rng.Perm(80)
			type open struct {
				tx     *Txn
				staged map[uint64][]byte
			}
			var live []open
			var committed []uint64
			model, before := map[uint64][]byte{}, map[uint64][]byte{}
			for len(ids) > 0 || len(live) > 0 {
				switch op := rng.Intn(6); {
				case len(ids) > 0 && (op == 0 || len(live) == 0) && len(live) < 4:
					id := uint64(ids[0])*3 + 1 // gaps between IDs, none zero
					ids = ids[1:]
					live = append(live, open{d.BeginWithID(id), map[uint64][]byte{}})
				case op <= 3 || len(live) == 0:
					if len(live) > 0 {
						o := live[rng.Intn(len(live))]
						key, val := uint64(1+rng.Intn(40)), []byte(fmt.Sprintf("tx%d-%d", o.tx.id, rng.Intn(1000)))
						if err := o.tx.Put(key, val); err != nil {
							t.Fatal(err)
						}
						o.staged[key] = val
					}
				default:
					i := rng.Intn(len(live))
					o := live[i]
					live = slices.Delete(live, i, i+1)
					if len(o.staged) == 0 || rng.Intn(6) == 0 {
						continue // dropped uncommitted
					}
					if err := o.tx.Commit(p); err != nil {
						t.Fatal(err)
					}
					clear(before)
					maps.Copy(before, model)
					maps.Copy(model, o.staged)
					committed = append(committed, o.tx.id)
				}
			}
			last := committed[len(committed)-1]
			slices.Sort(committed)
			if got := d.CommittedTxns(); !slices.Equal(got, committed) {
				t.Fatalf("seed %d: live committed set %v, want %v", seed, got, committed)
			}
			if d.Checkpoints() != 0 {
				t.Fatalf("seed %d: %d checkpoints; the log must hold every commit", seed, d.Checkpoints())
			}
			head := int64(0)
			for b := int64(1); b <= 64; b++ {
				if vol.Peek(b) != nil {
					head = b
				}
			}
			if head < 4 {
				t.Fatalf("seed %d: the log ends in WAL block %d; want it to cross several blocks", seed, head)
			}
			for _, torn := range []bool{false, true} {
				img := allocVolume(t, a, storage.VolumeID(fmt.Sprint("img", seed, torn)), vol)
				want, wantRows := committed, model
				if torn {
					blk := bytes.Clone(vol.Peek(head))
					blk[len(blk)-1] ^= 0xff // inside the last record: the last commit's
					if err := img.Poke(head, blk); err != nil {
						t.Fatal(err)
					}
					want = slices.DeleteFunc(slices.Clone(committed), func(id uint64) bool { return id == last })
					wantRows = before
				}
				re, err := recoverBothDoors(p, a, img, cfg)
				switch {
				case err != nil:
					t.Fatalf("seed %d, torn %v: %v", seed, torn, err)
				case re.SawTornTail() != torn:
					t.Fatalf("seed %d: torn tail %v, want %v", seed, re.SawTornTail(), torn)
				case !slices.Equal(re.CommittedTxns(), want) || re.RecoveredTxns() != len(want):
					t.Fatalf("seed %d, torn %v: recovered %v (%d redone), want %v", seed, torn, re.CommittedTxns(), re.RecoveredTxns(), want)
				}
				rows := 0
				re.Scan(p, func(r Row) bool {
					if rows++; !bytes.Equal(r.Val, wantRows[r.Key]) {
						t.Fatalf("seed %d, torn %v: key %d = %q, want %q", seed, torn, r.Key, r.Val, wantRows[r.Key])
					}
					return true
				})
				if rows != len(wantRows) {
					t.Fatalf("seed %d, torn %v: %d rows, want %d", seed, torn, rows, len(wantRows))
				}
			}
		}
	})
}
