package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

func block(a *Array, fill byte) []byte {
	b := make([]byte, a.Config().BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func newTestArray(t *testing.T) (*sim.Env, *Array) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, NewArray(env, "main", Config{})
}

func TestCreateAndListVolumes(t *testing.T) {
	_, a := newTestArray(t)
	if _, err := a.CreateVolume("sales", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateVolume("stock", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateVolume("sales", 1); !errors.Is(err, ErrVolumeExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := a.CreateVolume("bad", 0); err == nil {
		t.Fatal("zero-size volume accepted")
	}
	ids := a.ListVolumes()
	if len(ids) != 2 || ids[0] != "sales" || ids[1] != "stock" {
		t.Fatalf("list = %v", ids)
	}
	if _, err := a.Volume("nope"); !errors.Is(err, ErrNoSuchVolume) {
		t.Fatalf("lookup missing: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	data := block(a, 0xAB)
	var got []byte
	env.Process("io", func(p *sim.Proc) {
		if _, err := v.Write(p, 3, data); err != nil {
			t.Error(err)
			return
		}
		var err error
		got, err = v.Read(p, 3)
		if err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatal("read != written")
	}
	// Defensive copy: mutating the caller's buffer must not change the volume.
	data[0] = 0xFF
	if v.Peek(3)[0] != 0xAB {
		t.Fatal("volume aliased caller buffer")
	}
}

// A never-written block reads as zeroes, which every read reports as nil.
func TestUnwrittenBlocksReadNil(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	got := block(a, 0xEE)
	env.Process("io", func(p *sim.Proc) { got, _ = v.Read(p, 2) })
	env.Run(0)
	if got != nil || v.Peek(2) != nil {
		t.Fatal("unwritten block did not read nil")
	}
}

func TestWriteValidation(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	env.Process("io", func(p *sim.Proc) {
		if _, err := v.Write(p, 4, block(a, 1)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("out of range: %v", err)
		}
		if _, err := v.Write(p, -1, block(a, 1)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative: %v", err)
		}
		for _, n := range []int{0, a.Config().BlockSize + 1} {
			if _, err := v.Write(p, 0, make([]byte, n)); !errors.Is(err, ErrBadBlockSize) {
				t.Errorf("%d-byte write: %v", n, err)
			}
		}
		if v.Writes() != 0 {
			t.Errorf("refused writes stored %d blocks", v.Writes())
		}
		// A prefix is a block whose rest reads as zeroes.
		if _, err := v.Write(p, 0, []byte{1, 2}); err != nil || !bytes.Equal(v.Peek(0), []byte{1, 2}) {
			t.Errorf("prefix write: %v, stored %v", err, v.Peek(0))
		}
		v.SetReadOnly(true)
		if _, err := v.Write(p, 0, block(a, 1)); !errors.Is(err, ErrReadOnly) {
			t.Errorf("read-only: %v", err)
		}
	})
	env.Run(0)
}

func TestWriteConsumesServiceTime(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "m", Config{WriteLatency: time.Millisecond, Parallelism: 1})
	v, _ := a.CreateVolume("v", 10)
	env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 5; i++ {
			if _, err := v.Write(p, i, block(a, byte(i))); err != nil {
				t.Error(err)
			}
		}
	})
	end := env.Run(0)
	if end != 5*time.Millisecond {
		t.Fatalf("5 writes took %v, want 5ms", end)
	}
}

// journalOn attaches vols to a fresh one-shard consistency group and returns
// its journal.
func journalOn(t *testing.T, a *Array, id string, vols ...VolumeID) *Journal {
	t.Helper()
	sj, err := a.CreateConsistencyGroup(id, vols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sj.Shards()[0]
}

func TestJournaledWritePaysJournalLatency(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "m", Config{WriteLatency: time.Millisecond, JournalLatency: 100 * time.Microsecond})
	v, _ := a.CreateVolume("v", 10)
	journalOn(t, a, "j", "v")
	env.Process("io", func(p *sim.Proc) { v.Write(p, 0, block(a, 1)) })
	end := env.Run(0)
	if end != 1100*time.Microsecond {
		t.Fatalf("journaled write took %v, want 1.1ms", end)
	}
}

// Every array acks its writes in one array-wide order, whatever its service
// model: GlobalSeq is dense and strictly increasing across consistency groups
// and unjournaled volumes alike, each journal record carries its write's ack,
// and a group's shards merged by GlobalSeq give the group's write order.
func TestGlobalSeqIsMonotonicAcrossVolumes(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"shared controller", Config{}},
		{"isolated volumes", Config{IsolatedVolumes: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			a := NewArray(env, "main", c.cfg)
			vols := []VolumeID{"a", "b", "c", "d", "e", "u"} // u is unjournaled
			for _, id := range vols {
				if _, err := a.CreateVolume(id, 10); err != nil {
					t.Fatal(err)
				}
			}
			groups := []struct {
				members []VolumeID
				shards  int
			}{{[]VolumeID{"a", "b"}, 1}, {[]VolumeID{"c", "d", "e"}, 2}}
			sjs := make([]*ShardedJournal, len(groups))
			for i, g := range groups {
				sj, err := a.CreateConsistencyGroup(fmt.Sprintf("cg%d", i), g.members, g.shards)
				if err != nil {
					t.Fatal(err)
				}
				sjs[i] = sj
			}
			var acks []Ack
			env.Process("io", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					for k, id := range vols {
						v, _ := a.Volume(id)
						ack, err := v.Write(p, int64(i), block(a, byte(1+k)))
						if err != nil {
							t.Error(err)
							return
						}
						acks = append(acks, ack)
					}
				}
			})
			env.Run(0)
			if len(acks) != 4*len(vols) {
				t.Fatalf("%d acks, want %d", len(acks), 4*len(vols))
			}
			for i, ack := range acks {
				if ack.GlobalSeq != int64(i+1) {
					t.Fatalf("ack %d of %d carries GlobalSeq %d: not dense and increasing array-wide", i+1, len(acks), ack.GlobalSeq)
				}
			}
			for i, sj := range sjs {
				var merged []Record
				for k, j := range sj.Shards() {
					recs := j.TryTakeInto(nil, 0)
					if len(recs) == 0 {
						t.Fatalf("fixture degenerate: group %d shard %d journaled nothing", i, k)
					}
					for n, r := range recs {
						if n > 0 && r.GlobalSeq <= recs[n-1].GlobalSeq {
							t.Fatalf("group %d shard %d: record %d GlobalSeq %d after %d", i, k, n, r.GlobalSeq, recs[n-1].GlobalSeq)
						}
						if r.GlobalSeq < 1 || r.GlobalSeq > int64(len(acks)) {
							t.Fatalf("record %s/%d carries GlobalSeq %d, no write's ack", r.Volume, r.Block, r.GlobalSeq)
						}
						if ack := acks[r.GlobalSeq-1]; ack.Volume != r.Volume || ack.Block != r.Block {
							t.Fatalf("record %s/%d carries GlobalSeq %d, acked to %s/%d", r.Volume, r.Block, r.GlobalSeq, ack.Volume, ack.Block)
						}
					}
					merged = append(merged, recs...)
				}
				sort.Slice(merged, func(x, y int) bool { return merged[x].GlobalSeq < merged[y].GlobalSeq })
				var want []Ack
				for _, ack := range acks {
					if slices.Contains(groups[i].members, ack.Volume) {
						want = append(want, ack)
					}
				}
				if len(merged) != len(want) {
					t.Fatalf("group %d journaled %d records for %d writes", i, len(merged), len(want))
				}
				for n, r := range merged {
					if r.Volume != want[n].Volume || r.Block != want[n].Block {
						t.Fatalf("group %d merged record %d is %s/%d, write %d was %s/%d", i, n, r.Volume, r.Block, n, want[n].Volume, want[n].Block)
					}
				}
			}
		})
	}
}

func TestConsistencyGroupSharesOneOrder(t *testing.T) {
	env, a := newTestArray(t)
	a.CreateVolume("sales", 10)
	a.CreateVolume("stock", 10)
	j := journalOn(t, a, "cg", "sales", "stock")
	if m := j.Members(); len(m) != 2 {
		t.Fatalf("members = %v", m)
	}
	sales, _ := a.Volume("sales")
	stock, _ := a.Volume("stock")
	env.Process("io", func(p *sim.Proc) {
		sales.Write(p, 0, block(a, 1))
		stock.Write(p, 0, block(a, 2))
		sales.Write(p, 1, block(a, 3))
	})
	env.Run(0)
	recs := j.TryTakeInto(nil, 0)
	if len(recs) != 3 {
		t.Fatalf("drained %d records", len(recs))
	}
	wantVols := []VolumeID{"sales", "stock", "sales"}
	for i, r := range recs {
		if r.GlobalSeq != int64(i+1) {
			t.Fatalf("seq %d at %d", r.GlobalSeq, i)
		}
		if r.Volume != wantVols[i] {
			t.Fatalf("record %d volume = %s, want %s", i, r.Volume, wantVols[i])
		}
	}
}

func TestCreateConsistencyGroupRollsBackOnFailure(t *testing.T) {
	_, a := newTestArray(t)
	a.CreateVolume("a", 10)
	if _, err := a.CreateConsistencyGroup("cg", []VolumeID{"a", "missing"}, 1); err == nil {
		t.Fatal("expected failure")
	}
	v, _ := a.Volume("a")
	if v.Journal() != nil {
		t.Fatal("rollback left volume attached")
	}
	if res := a.Residue("cg"); len(res) != 0 {
		t.Fatal("rollback left journal")
	}
}

func TestVolumeJoinsOneGroupAtATime(t *testing.T) {
	_, a := newTestArray(t)
	a.CreateVolume("v", 10)
	journalOn(t, a, "j1", "v")
	if _, err := a.CreateConsistencyGroup("j2", []VolumeID{"v"}, 1); !errors.Is(err, ErrJournalAttached) {
		t.Fatalf("double attach: %v", err)
	}
	if err := a.DeleteShardedJournal("j1"); err != nil {
		t.Fatal(err)
	}
	journalOn(t, a, "j2", "v")
}

func TestDeleteVolumeGuardrails(t *testing.T) {
	env, a := newTestArray(t)
	a.CreateVolume("v", 10)
	journalOn(t, a, "j", "v")
	if err := a.DeleteVolume("v"); err == nil {
		t.Fatal("deleted journal-attached volume")
	}
	a.DeleteShardedJournal("j")
	a.CreateSnapshot("s", "v")
	if err := a.DeleteVolume("v"); err == nil {
		t.Fatal("deleted snapped volume")
	}
	a.DeleteSnapshot("s")
	if err := a.DeleteVolume("v"); err != nil {
		t.Fatal(err)
	}
	_ = env
}

// The lanes' contract: wait on NotEmpty, then take — the wait returns no
// earlier than the append, and the take then finds the record.
func TestJournalTakeBlocksUntilAppend(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	j := journalOn(t, a, "j", "v")
	var recs []Record
	var takeAt time.Duration
	env.Process("drain", func(p *sim.Proc) {
		if got := j.TryTakeInto(nil, 10); got != nil {
			t.Errorf("empty journal handed out %d records", len(got))
		}
		p.Wait(j.NotEmpty())
		recs = j.TryTakeInto(nil, 10)
		takeAt = p.Now()
	})
	env.Process("io", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		v.Write(p, 0, block(a, 1))
	})
	env.Run(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if takeAt < 5*time.Millisecond {
		t.Fatalf("take returned at %v before any append", takeAt)
	}
}

func TestJournalTakeMaxBatches(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 100)
	j := journalOn(t, a, "j", "v")
	env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			v.Write(p, i, block(a, byte(i)))
		}
	})
	env.Run(0)
	if j.Pending() != 10 {
		t.Fatalf("pending = %d", j.Pending())
	}
	b1 := j.TryTakeInto(nil, 4)
	if len(b1) != 4 || b1[0].GlobalSeq != 1 || b1[3].GlobalSeq != 4 {
		t.Errorf("batch1 = %v", b1)
	}
	b2 := j.TryTakeInto(nil, 100)
	if len(b2) != 6 || b2[0].GlobalSeq != 5 {
		t.Errorf("batch2 len=%d", len(b2))
	}
	if j.Pending() != 0 || j.Appended() != 10 {
		t.Fatalf("pending=%d appended=%d", j.Pending(), j.Appended())
	}
}

func TestJournalRPOBookkeeping(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	j := journalOn(t, a, "j", "v")
	if _, ok := j.OldestPendingAck(); ok {
		t.Fatal("empty journal reported an oldest ack")
	}
	env.Process("io", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 1))
		p.Sleep(10 * time.Millisecond)
		v.Write(p, 1, block(a, 2))
	})
	env.Run(0)
	oldest, ok := j.OldestPendingAck()
	if !ok || oldest >= 10*time.Millisecond {
		t.Fatalf("oldest = %v ok=%v, want first write's ack time", oldest, ok)
	}
	if j.PendingBytes() != 2*(a.Config().BlockSize+recordHeaderBytes) {
		t.Fatalf("pending bytes = %d", j.PendingBytes())
	}
}

func TestSnapshotCopyOnWrite(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	env.Process("setup", func(p *sim.Proc) { v.Write(p, 0, block(a, 0x01)) })
	env.Run(0)
	s, err := a.CreateSnapshot("s", "v")
	if err != nil {
		t.Fatal(err)
	}
	env.Process("overwrite", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 0x02)) // overwrite snapped content
		v.Write(p, 1, block(a, 0x03)) // new block after snapshot
	})
	env.Run(0)
	var snap0, snap1, cur0 []byte
	env.Process("read", func(p *sim.Proc) {
		snap0, _ = s.Read(p, 0)
		snap1, _ = s.Read(p, 1)
		cur0, _ = v.Read(p, 0)
	})
	env.Run(0)
	if snap0[0] != 0x01 {
		t.Fatalf("snapshot sees %x, want pre-overwrite 01", snap0[0])
	}
	if snap1 != nil {
		t.Fatalf("snapshot sees %x for block written after snap, want nil (zeroes)", snap1[0])
	}
	if cur0[0] != 0x02 {
		t.Fatalf("volume sees %x, want 02", cur0[0])
	}
	if len(s.saved) != 2 { // block 0 original + block 1 was-unwritten marker
		t.Fatalf("saved = %d", len(s.saved))
	}
	if v.COWCopies() != 2 {
		t.Fatalf("cow copies = %d", v.COWCopies())
	}
}

func TestSnapshotRepeatedOverwritePreservesFirstOriginal(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	env.Process("w", func(p *sim.Proc) { v.Write(p, 0, block(a, 0xAA)) })
	env.Run(0)
	s, _ := a.CreateSnapshot("s", "v")
	env.Process("w", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 0xBB))
		v.Write(p, 0, block(a, 0xCC))
	})
	env.Run(0)
	if got := s.Peek(0)[0]; got != 0xAA {
		t.Fatalf("snapshot block = %x, want AA", got)
	}
	if v.COWCopies() != 1 {
		t.Fatalf("cow copies = %d, want 1 (only first overwrite copies)", v.COWCopies())
	}
}

func TestSnapshotGroupAtomicAndRollback(t *testing.T) {
	env, a := newTestArray(t)
	a.CreateVolume("sales", 4)
	a.CreateVolume("stock", 4)
	volumesOnly := []string{"volume sales", "volume stock"}
	if _, err := a.CreateSnapshotGroup("g1", []VolumeID{"sales", "missing"}); err == nil {
		t.Fatal("expected failure for missing volume")
	}
	if res := a.Residue(""); !slices.Equal(res, volumesOnly) {
		t.Fatalf("rollback left snapshots: %v", res)
	}
	g, err := a.CreateSnapshotGroup("g2", []VolumeID{"sales", "stock"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Snapshots()) != 2 {
		t.Fatalf("group has %d snaps", len(g.Snapshots()))
	}
	if g.Snapshot("sales") == nil || g.Snapshot("stock") == nil || g.Snapshot("x") != nil {
		t.Fatal("group member lookup broken")
	}
	for _, s := range g.Snapshots() {
		if s.TakenAt() != g.TakenAt() {
			t.Fatal("group members taken at different instants")
		}
		if s.group != "g2" {
			t.Fatalf("snapshot group tag = %q", s.group)
		}
	}
	if err := a.DeleteSnapshotGroup("g2"); err != nil {
		t.Fatal(err)
	}
	if res := a.Residue(""); !slices.Equal(res, volumesOnly) {
		t.Fatalf("group delete left member snapshots: %v", res)
	}
	if err := a.DeleteSnapshotGroup("g2"); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatalf("second delete of the group: %v, want ErrNoSuchSnapshot", err)
	}
	_ = env
}

func TestApplyPathDoesNotJournal(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	j := journalOn(t, a, "j", "v")
	env.Process("apply", func(p *sim.Proc) {
		if err := v.Apply(p, 0, block(a, 9)); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if j.Pending() != 0 {
		t.Fatal("Apply leaked into the journal")
	}
	if v.Peek(0)[0] != 9 {
		t.Fatal("Apply did not store data")
	}
}

func TestApplyRespectsSnapshotCOW(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	env.Process("w", func(p *sim.Proc) { v.Write(p, 0, block(a, 0x11)) })
	env.Run(0)
	s, _ := a.CreateSnapshot("s", "v")
	env.Process("apply", func(p *sim.Proc) { v.Apply(p, 0, block(a, 0x22)) })
	env.Run(0)
	if got := s.Peek(0)[0]; got != 0x11 {
		t.Fatalf("snapshot lost original under Apply: %x", got)
	}
}

func TestPokeBypassesTimeButKeepsCOW(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	if err := v.Poke(0, block(a, 0x01)); err != nil {
		t.Fatal(err)
	}
	s, _ := a.CreateSnapshot("s", "v")
	if err := v.Poke(0, block(a, 0x02)); err != nil {
		t.Fatal(err)
	}
	if s.Peek(0)[0] != 0x01 {
		t.Fatal("Poke skipped snapshot COW")
	}
	if env.Now() != 0 {
		t.Fatal("Poke consumed simulated time")
	}
}

func TestReadOnlyVolumeStillAppliesReplication(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	v.SetReadOnly(true)
	env.Process("apply", func(p *sim.Proc) {
		if err := v.Apply(p, 0, block(a, 5)); err != nil {
			t.Errorf("apply on read-only target: %v", err)
		}
	})
	env.Run(0)
}

func TestArrayStats(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 10)
	env.Process("io", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 1))
		v.Read(p, 0)
	})
	env.Run(0)
	if a.WriteOps() != 1 || a.ReadOps() != 1 {
		t.Fatalf("ops = %d/%d", a.WriteOps(), a.ReadOps())
	}
	if a.BytesWritten() != int64(a.Config().BlockSize) {
		t.Fatalf("bytes = %d", a.BytesWritten())
	}
	if v.Writes() != 1 || v.Reads() != 1 {
		t.Fatalf("vol ops = %d/%d", v.Writes(), v.Reads())
	}
}

func TestWrittenBlocksSorted(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 100)
	env.Process("io", func(p *sim.Proc) {
		for _, b := range []int64{42, 7, 99, 0} {
			v.Write(p, b, block(a, 1))
		}
	})
	env.Run(0)
	got := v.WrittenBlocks()
	want := []int64{0, 7, 42, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks = %v", got)
		}
	}
}

// TestResidueTracksAllocations pins the accounting the tenant decommission
// invariant is built on: Residue lists every allocated object tied to an ID
// prefix ("" for all of them), and a full teardown returns it to its prior
// listing.
func TestResidueTracksAllocations(t *testing.T) {
	env, a := newTestArray(t)
	if res := a.Residue(""); len(res) != 0 {
		t.Fatalf("fresh array holds %v", res)
	}
	for _, id := range []VolumeID{"pvc-shop-sales", "pvc-shop-stock", "pvc-other-db"} {
		if _, err := a.CreateVolume(id, 64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.CreateConsistencyGroup("jnl-backup-shop-0",
		[]VolumeID{"pvc-shop-sales", "pvc-shop-stock"}, 2); err != nil {
		t.Fatal(err)
	}
	env.Process("write", func(p *sim.Proc) {
		v, _ := a.Volume("pvc-shop-sales")
		if _, err := v.Write(p, 0, block(a, 1)); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if _, err := a.CreateSnapshotGroup("shop-final", []VolumeID{"pvc-shop-sales", "pvc-shop-stock"}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"journal jnl-backup-shop-0",
		"journal jnl-backup-shop-0#s1",
		"sharded journal jnl-backup-shop-0",
		"snapshot group shop-final member of pvc-shop-sales",
		"snapshot shop-final/pvc-shop-sales of pvc-shop-sales",
		"snapshot shop-final/pvc-shop-stock of pvc-shop-stock",
		"volume pvc-other-db",
		"volume pvc-shop-sales",
		"volume pvc-shop-stock",
	}
	if res := a.Residue(""); !slices.Equal(res, want) {
		t.Fatalf("array objects = %v, want %v", res, want)
	}
	sj, _ := a.ShardedJournal("jnl-backup-shop-0")
	sales, _ := a.Volume("pvc-shop-sales")
	stock, _ := a.Volume("pvc-shop-stock")
	if sales.Journal() == nil || stock.Journal() == nil {
		t.Fatal("a member volume is not attached to its shard journal")
	}
	if len(sales.WrittenBlocks()) != 1 || sj.Pending() != 1 {
		t.Fatalf("stored blocks %v, pending records %d; want one of each", sales.WrittenBlocks(), sj.Pending())
	}
	if res := a.Residue("pvc-shop-"); len(res) == 0 {
		t.Fatal("residue missed the shop objects")
	}
	if res := a.Residue("pvc-missing-"); len(res) != 0 {
		t.Fatalf("phantom residue: %v", res)
	}

	// Full teardown of the shop tenant.
	if err := a.DeleteShardedJournal("jnl-backup-shop-0"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []VolumeID{"pvc-shop-sales", "pvc-shop-stock"} {
		if err := a.DeleteVolumeSnapshots(id); err != nil {
			t.Fatal(err)
		}
		if err := a.DeleteVolume(id); err != nil {
			t.Fatal(err)
		}
	}
	if res := a.Residue("pvc-shop-"); len(res) != 0 {
		t.Fatalf("residue after teardown: %v", res)
	}
	if res := a.Residue("jnl-backup-shop-"); len(res) != 0 {
		t.Fatalf("journal residue after teardown: %v", res)
	}
	if res := a.Residue(""); !slices.Equal(res, []string{"volume pvc-other-db"}) {
		t.Fatalf("array objects after teardown = %v, want only pvc-other-db", res)
	}
}

// TestDeleteVolumeSnapshotsShrinksGroups pins the group bookkeeping: a
// per-volume snapshot deletion removes the member from its group and drops
// the group when the last member goes.
func TestDeleteVolumeSnapshotsShrinksGroups(t *testing.T) {
	_, a := newTestArray(t)
	for _, id := range []VolumeID{"va", "vb"} {
		if _, err := a.CreateVolume(id, 16); err != nil {
			t.Fatal(err)
		}
	}
	g, err := a.CreateSnapshotGroup("g", []VolumeID{"va", "vb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteVolumeSnapshots("va"); err != nil {
		t.Fatal(err)
	}
	want := []string{"snapshot g/vb of vb", "snapshot group g member of vb", "volume va", "volume vb"}
	if res := a.Residue(""); len(g.Snapshots()) != 1 || !slices.Equal(res, want) {
		t.Fatalf("group members = %d, array objects %v, want 1 snapshot in 1 group", len(g.Snapshots()), res)
	}
	if err := a.DeleteVolumeSnapshots("vb"); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteSnapshotGroup("g"); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatalf("empty snapshot group survived: delete returned %v", err)
	}
	if res := a.Residue(""); !slices.Equal(res, []string{"volume va", "volume vb"}) {
		t.Fatalf("array objects after deletes = %v", res)
	}
}
