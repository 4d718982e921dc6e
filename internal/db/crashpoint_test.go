package db

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/consistency"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Crash points enumerated, not sampled (in the manner of ALICE and
// CrashMonkey): a scripted workload runs on a volume behind a recording
// BlockWriter, and every prefix of the block writes it issued — plus the last
// write of each prefix torn — is materialised as an image and recovered.
//
// The storage model does not reorder writes: a write is stored when it is
// acked, and a gather acks its blocks in slice order, so every image a crash
// or a replicated cut can leave is a prefix of the ack order. The one hazard
// the enumeration adds below the model is a torn last write: the new block's
// first bytes over the old one.

// recorder is a BlockWriter over a volume that logs every block written
// through it in the order the volume acks them: a gather's blocks one by one.
// The logged slices are the ones handed over, which no one writes into again.
type recorder struct {
	*storage.Volume
	writes []storage.BlockIO
}

func (r *recorder) WriteOwned(p *sim.Proc, block int64, data []byte) (storage.Ack, error) {
	ack, err := r.Volume.WriteOwned(p, block, data)
	if err == nil {
		r.writes = append(r.writes, storage.BlockIO{Block: block, Data: data})
	}
	return ack, err
}

func (r *recorder) WriteOwnedBlocks(p *sim.Proc, ios []storage.BlockIO) error {
	if err := r.Volume.WriteOwnedBlocks(p, ios); err != nil {
		return err
	}
	r.writes = append(r.writes, ios...)
	return nil
}

// scriptedCommit is one transaction the script committed: its ID, its rows,
// and the writes the recorder held when Commit was called and when it returned.
type scriptedCommit struct {
	id         uint64
	rows       map[uint64]string
	start, end int
}

// crashScript is the enumerated workload, on 512-byte blocks (4 slots a page)
// and a 4-block WAL over 5 data pages:
//   - a page filled to one free slot, a transaction refused for wanting two
//     (it writes nothing), and one taking the last slot;
//   - a transaction whose records straddle a WAL block;
//   - an explicit checkpoint, and a commit into seq 0 of the new epoch;
//   - commits until the WAL wraps: the commit that finds the region full
//     checkpoints first and logs in the checkpoint's tail.
func crashScript(t *testing.T, p *sim.Proc, rec *recorder, cfg Config) []scriptedCommit {
	t.Helper()
	d, err := Open(p, "x", rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var commits []scriptedCommit
	commit := func(rows map[uint64]string) error {
		tx := d.Begin()
		for _, k := range slices.Sorted(maps.Keys(rows)) {
			if err := tx.Put(k, []byte(rows[k])); err != nil {
				t.Fatal(err)
			}
		}
		start := len(rec.writes)
		if err := tx.Commit(p); err != nil {
			if len(rec.writes) != start {
				t.Fatalf("a refused commit wrote %d blocks", len(rec.writes)-start)
			}
			return err
		}
		commits = append(commits, scriptedCommit{tx.id, rows, start, len(rec.writes)})
		return nil
	}
	must := func(rows map[uint64]string) {
		t.Helper()
		if err := commit(rows); err != nil {
			t.Fatal(err)
		}
	}
	long := func(c byte) string { return string(bytes.Repeat([]byte{c}, 100)) }

	must(map[uint64]string{1: "a"})         // page 1
	must(map[uint64]string{6: "b", 2: "c"}) // pages 1, 2
	must(map[uint64]string{11: "d"})        // page 1: one free slot left
	if err := commit(map[uint64]string{16: "e", 21: "f"}); !errors.Is(err, ErrPageFull) {
		t.Fatalf("two new keys for one free slot: %v, want ErrPageFull", err)
	}
	must(map[uint64]string{16: "g"}) // the last slot
	seq, walWrites := d.walSeq, d.WALWrites()
	must(map[uint64]string{7: long('h'), 8: long('i'), 9: long('j')})
	if d.walSeq != seq+1 || d.WALWrites() != walWrites+2 {
		t.Fatalf("the straddling commit moved the head %d blocks in %d writes, want 1 in 2", d.walSeq-seq, d.WALWrites()-walWrites)
	}
	if err := d.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	must(map[uint64]string{3: "k"})
	if d.walSeq != 0 {
		t.Fatalf("the commit after the checkpoint went to seq %d, want 0", d.walSeq)
	}
	for i := 0; d.Checkpoints() < 2; i++ {
		must(map[uint64]string{uint64(2 + i%2): long(byte('l' + i))})
	}
	must(map[uint64]string{4: "z"})
	return commits
}

// tear returns old with the first `at` bytes of new written over it — new
// read as a whole block, zeroes past its prefix.
func tear(old, new []byte, at int) []byte {
	blk := make([]byte, max(len(old), len(new), at))
	copy(blk, old)
	clear(blk[:at])
	copy(blk[:at], new)
	return blk
}

// tearPoints returns where a write of new over old can tear so that the block
// is neither: every slot boundary — every byte of the superblock, which is
// shorter than a slot — past the bytes the two share and short of the longer.
func tearPoints(block int64, old, new []byte) []int {
	unit := slotSize
	if block == 0 {
		unit = 1
	}
	same := 0
	for same < min(len(old), len(new)) && old[same] == new[same] {
		same++
	}
	var at []int
	for n := unit; n < max(len(old), len(new)); n += unit {
		if n > same {
			at = append(at, n)
		}
	}
	return at
}

// TestEveryCrashPointRecovers enumerates the crash script's block writes. For
// every prefix, and every tear of the prefix's last write:
//   - a block 0 never written is an unformatted volume, and one that does not
//     decode is ErrCorruptSuperblock from both doors, with nothing written;
//   - otherwise both doors agree (recoverBothDoors), the log read obeys
//     live ≤ read ≤ min(2·live+1, WALBlocks), and the rows are exactly the
//     state after some prefix of the commit order — no phantom row — that
//     holds every commit that had returned and none that had not begun;
//   - the committed set the replay found lies inside that prefix.
func TestEveryCrashPointRecovers(t *testing.T) {
	cfg := Config{WALBlocks: 4}
	const size = 1 + 4 + 5
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{BlockSize: 512})
	vol, err := a.CreateVolume("v", size)
	if err != nil {
		t.Fatal(err)
	}
	env.Process("enumerate", func(p *sim.Proc) {
		rec := &recorder{Volume: vol}
		commits := crashScript(t, p, rec, cfg)
		// states[m] is every row after the first m commits: key → "txid=val".
		states := []map[uint64]string{{}}
		for _, c := range commits {
			next := maps.Clone(states[len(states)-1])
			for k, v := range c.rows {
				next[k] = fmt.Sprintf("%d=%s", c.id, v)
			}
			states = append(states, next)
		}

		images, torn := 0, 0
		outcomes := map[string]int{"unformatted": 0, "corrupt superblock": 0, "torn log tail": 0, "clean log end": 0}
		check := func(what string, image map[int64][]byte, applied, issued int) {
			images++
			img, err := a.CreateVolume(storage.VolumeID(fmt.Sprint("img", images)), size)
			if err != nil {
				t.Fatal(err)
			}
			defer a.DeleteVolume(img.ID())
			for b, data := range image {
				if err := img.Poke(b, data); err != nil {
					t.Fatal(err)
				}
			}
			_, formatted := decodeSuperblock(image[0])
			d, err := recoverBothDoors(p, a, img, cfg)
			switch {
			case len(bytes.TrimLeft(image[0], "\x00")) == 0:
				if !errors.Is(err, ErrNotFormatted) {
					t.Fatalf("%s: block 0 never written: %v, want ErrNotFormatted", what, err)
				}
				outcomes["unformatted"]++
				return
			case !formatted:
				if !errors.Is(err, ErrCorruptSuperblock) {
					t.Fatalf("%s: bad superblock: view %v, want ErrCorruptSuperblock", what, err)
				}
				if _, err := Open(p, "x", img, cfg); !errors.Is(err, ErrCorruptSuperblock) || img.Writes() != 0 {
					t.Fatalf("%s: bad superblock: Open %v after %d writes, want ErrCorruptSuperblock and none", what, err, img.Writes())
				}
				outcomes["corrupt superblock"]++
				return
			case err != nil:
				t.Fatalf("%s: %v", what, err)
			case d.SawTornTail():
				outcomes["torn log tail"]++
			default:
				outcomes["clean log end"]++
			}
			if live, read := d.LogBlocks(); live > read || read > min(2*live+1, cfg.WALBlocks) {
				t.Fatalf("%s: the log read found %d live blocks in %d read", what, live, read)
			}
			rows := map[uint64]string{}
			d.Scan(p, func(r Row) bool {
				rows[r.Key] = fmt.Sprintf("%d=%s", r.TxID, r.Val)
				return true
			})
			m := slices.IndexFunc(states, func(s map[uint64]string) bool { return maps.Equal(s, rows) })
			returned := 0
			for returned < len(commits) && commits[returned].end <= applied {
				returned++
			}
			begun := returned
			for begun < len(commits) && commits[begun].start < issued {
				begun++
			}
			if m < returned || m > begun {
				t.Fatalf("%s: recovered rows %v are the state after %d commits (-1: after none); want the state after %d..%d, the commits returned..begun",
					what, rows, m, returned, begun)
			}
			for _, id := range d.CommittedTxns() {
				if !slices.ContainsFunc(commits[:m], func(c scriptedCommit) bool { return c.id == id }) {
					t.Fatalf("%s: the replay found tx %d committed, outside the recovered prefix of %d commits", what, id, m)
				}
			}
		}

		image := map[int64][]byte{}
		for w, io := range rec.writes {
			check(fmt.Sprintf("prefix %d", w), image, w, w)
			for _, at := range tearPoints(io.Block, image[io.Block], io.Data) {
				torn++
				next := maps.Clone(image)
				next[io.Block] = tear(image[io.Block], io.Data, at)
				check(fmt.Sprintf("prefix %d, write %d (block %d) torn at %d", w, w, io.Block, at), next, w, w+1)
			}
			image[io.Block] = io.Data
		}
		check("every write", image, len(rec.writes), len(rec.writes))
		for b := range int64(size) {
			if !bytes.Equal(image[b], vol.Peek(b)) {
				t.Fatalf("block %d: the recorded writes end with %x, the volume holds %x", b, image[b], vol.Peek(b))
			}
		}
		for outcome, n := range outcomes {
			if n == 0 {
				t.Errorf("no image ended as %q: the script no longer reaches it", outcome)
			}
		}
		t.Logf("%d commits, %d block writes, %d images (%d torn): %v", len(commits), len(rec.writes), images, torn, outcomes)
	})
	env.Run(0)
}

// rowSet is the committed set a recovered image's rows show: the transaction
// that last wrote each row. The group script writes every business
// transaction's rows under keys of their own, so no later one hides it.
type rowSet map[uint64]bool

func scanRowSet(p *sim.Proc, d *DB) rowSet {
	set := rowSet{}
	d.Scan(p, func(r Row) bool {
		set[r.TxID] = true
		return true
	})
	return set
}

func (s rowSet) CommittedTxns() []uint64       { return slices.Sorted(maps.Keys(s)) }
func (s rowSet) HasCommitted(txid uint64) bool { return s[txid] }

// TestEveryJournalCutOpensConsistent is the same enumeration one layer up:
// the shop's two databases in one consistency group, at 1 and at 4 journal
// shards (each volume on a shard of its own). Every prefix of the group's ack
// order — the records of every shard, merged by GlobalSeq — applied to blank
// twins opens through both doors as a consistent cut: each database a prefix
// of its commit order and no stock transaction without its sale.
func TestEveryJournalCutOpensConsistent(t *testing.T) {
	cfg := Config{WALBlocks: 2}
	const size, orders = 1 + 2 + 8, 24
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint(shards, "shards"), func(t *testing.T) {
			env := sim.NewEnv(1)
			a := storage.NewArray(env, "arr", storage.Config{BlockSize: 512})
			ids := []storage.VolumeID{"sales", "stock"}
			for _, id := range ids {
				if _, err := a.CreateVolume(id, size); err != nil {
					t.Fatal(err)
				}
			}
			sj, err := a.CreateConsistencyGroup("cg", ids, shards)
			if err != nil {
				t.Fatal(err)
			}
			if shards > 1 && sj.ShardIndexOf("sales") == sj.ShardIndexOf("stock") {
				t.Fatal("both volumes hash to one shard; the cut would not cross shards")
			}
			env.Process("enumerate", func(p *sim.Proc) {
				var dbs [2]*DB
				for i, id := range ids {
					vol, _ := a.Volume(id)
					if dbs[i], err = Open(p, string(id), vol, cfg); err != nil {
						t.Fatal(err)
					}
				}
				var order []uint64
				for id := uint64(1); id <= orders; id++ {
					for _, d := range dbs { // the sale first, then the stock it moved
						tx := d.BeginWithID(id)
						tx.Put(id, []byte(fmt.Sprint("order-", id)))
						if err := tx.Commit(p); err != nil {
							t.Fatal(err)
						}
					}
					order = append(order, id)
				}
				if dbs[0].Checkpoints() == 0 || dbs[1].Checkpoints() == 0 {
					t.Fatal("the WAL never wrapped: no page gather or superblock in the journal")
				}
				var recs []storage.Record
				for _, sh := range sj.Shards() {
					recs = append(recs, sh.TryTakeInto(nil, 0)...)
				}
				slices.SortFunc(recs, func(x, y storage.Record) int { return int(x.GlobalSeq - y.GlobalSeq) })
				for j := 1; j < len(recs); j++ {
					if recs[j].GlobalSeq == recs[j-1].GlobalSeq {
						t.Fatalf("two records share GlobalSeq %d: the shards' order is not one total order", recs[j].GlobalSeq)
					}
				}
				for cut := range len(recs) + 1 {
					var sets [2]consistency.CommitSet
					for i, id := range ids {
						twin, err := a.CreateVolume(storage.VolumeID(fmt.Sprint(id, "-twin-", cut)), size)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range recs[:cut] {
							if sj.Members()[r.Member] == id {
								twin.Poke(int64(r.Block), r.Data)
							}
						}
						d, err := recoverBothDoors(p, a, twin, cfg)
						switch {
						case errors.Is(err, ErrNotFormatted): // cut before the format: an empty database
							sets[i] = rowSet{}
						case err != nil:
							t.Fatalf("cut %d of %d, %s: %v", cut, len(recs), id, err)
						default:
							sets[i] = scanRowSet(p, d)
						}
						a.DeleteVolume(twin.ID())
					}
					if rep := consistency.Verify(sets[0], sets[1], order, order); rep.Collapsed() || !rep.OrderingOK() {
						t.Fatalf("cut %d of %d is not consistent: %v, ordering ok %v", cut, len(recs), rep, rep.OrderingOK())
					}
				}
			})
			env.Run(0)
		})
	}
}
