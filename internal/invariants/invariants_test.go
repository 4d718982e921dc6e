package invariants

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/sim"
	"repro/internal/storage"
)

// stamped writes the big-endian sequence stamp seq into block b of v — the
// E13/E15 write-heavy-tenant block format StampedPrefix scans for.
func stamped(t *testing.T, env *sim.Env, v *storage.Volume, b int64, seq uint64) {
	t.Helper()
	buf := make([]byte, v.BlockSize())
	binary.BigEndian.PutUint64(buf, seq)
	env.Process("w", func(p *sim.Proc) {
		if _, err := v.Write(p, b, buf); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
}

func TestStampedPrefixExactAndLeaked(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "m", storage.Config{})
	v1, _ := a.CreateVolume("v1", 16)
	v2, _ := a.CreateVolume("v2", 16)
	stamped(t, env, v1, 0, 1)
	stamped(t, env, v2, 0, 2)
	stamped(t, env, v1, 1, 3)
	if k, exact := StampedPrefix([]*storage.Volume{v1, v2}); k != 3 || !exact {
		t.Fatalf("prefix = %d exact=%v, want 3 exact", k, exact)
	}
	// A leaked write past a hole: {1,2,3,5} is a prefix of 3 but NOT exact.
	stamped(t, env, v2, 1, 5)
	if k, exact := StampedPrefix([]*storage.Volume{v1, v2}); k != 3 || exact {
		t.Fatalf("leaked image: prefix = %d exact=%v, want 3 inexact", k, exact)
	}
	// A stamp is read from any legal prefix: fill 4..255, then write 256 as
	// the 7 bytes that read as it.
	v3, _ := a.CreateVolume("v3", 256)
	buf := make([]byte, 8)
	for seq := uint64(4); seq < 256; seq++ {
		binary.BigEndian.PutUint64(buf, seq)
		if err := v3.Poke(int64(seq), buf); err != nil {
			t.Fatal(err)
		}
	}
	env.Process("w", func(p *sim.Proc) {
		if _, err := v3.Write(p, 0, []byte{0, 0, 0, 0, 0, 0, 1}); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if k, exact := StampedPrefix([]*storage.Volume{v1, v2, v3}); k != 256 || !exact {
		t.Fatalf("with a 7-byte stamp: prefix = %d exact=%v, want 256 exact", k, exact)
	}
}

// stampedImage pokes stamps 1..blocks round-robin over vols volumes.
func stampedImage(tb testing.TB, vols, blocks int) []*storage.Volume {
	a := storage.NewArray(sim.NewEnv(1), "m", storage.Config{})
	out := make([]*storage.Volume, vols)
	for i := range out {
		v, err := a.CreateVolume(storage.VolumeID(fmt.Sprintf("v%d", i)), int64(blocks))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = v
	}
	buf := make([]byte, a.Config().BlockSize)
	for seq := 1; seq <= blocks; seq++ {
		binary.BigEndian.PutUint64(buf, uint64(seq))
		if err := out[seq%vols].Poke(int64(seq/vols), buf); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// StampedPrefix reads 8 bytes of every written block in place: what it
// allocates is its presence map (which grows by doubling) and one index slice
// per volume — nothing per block. It used to copy every 4 KiB block it looked
// at, which was a quarter of all bytes the drain workloads allocated.
func TestStampedPrefixAllocatesNothingPerBlock(t *testing.T) {
	const blocks = 2048
	vols := stampedImage(t, 4, blocks)
	if k, exact := StampedPrefix(vols); k != blocks || !exact {
		t.Fatalf("prefix = %d exact=%v, want %d exact", k, exact, blocks)
	}
	n := testing.AllocsPerRun(5, func() { StampedPrefix(vols) })
	if n > blocks/16 {
		t.Fatalf("StampedPrefix over %d blocks allocates %v times: it copies what it scans", blocks, n)
	}
	t.Logf("StampedPrefix over %d blocks: %v allocations", blocks, n)
}

// BenchmarkStampedPrefix is the verifier's layer benchmark: one scan of an
// 8,192-block exact image over 16 volumes per op — the drain workloads' size.
func BenchmarkStampedPrefix(b *testing.B) {
	vols := stampedImage(b, 16, 8192)
	b.ReportAllocs()
	for b.Loop() {
		if k, exact := StampedPrefix(vols); k != 8192 || !exact {
			b.Fatalf("prefix = %d exact=%v", k, exact)
		}
	}
}

// txnSet is a minimal consistency.CommitSet for building Reports.
type txnSet []uint64

func (s txnSet) HasCommitted(tx uint64) bool {
	for _, x := range s {
		if x == tx {
			return true
		}
	}
	return false
}
func (s txnSet) CommittedTxns() []uint64 { return s }

func TestCheckConsistentCut(t *testing.T) {
	order := []uint64{1, 2, 3}
	// Clean lost tail: no violations.
	rep := consistency.Verify(txnSet{1, 2}, txnSet{1}, order, order)
	if vs := CheckConsistentCut("t0", rep); len(vs) != 0 {
		t.Fatalf("clean cut flagged: %v", vs)
	}
	// Orphan stock commit: the paper's collapse.
	rep = consistency.Verify(txnSet{1}, txnSet{1, 2}, order, order)
	vs := CheckConsistentCut("t0", rep)
	if len(vs) != 1 || !strings.Contains(vs[0].String(), "collapsed") {
		t.Fatalf("collapse not reported: %v", vs)
	}
	if vs[0].Tenant != "t0" {
		t.Fatalf("tenant = %q", vs[0].Tenant)
	}
	// Hole in the sales prefix.
	rep = consistency.Verify(txnSet{1, 3}, txnSet{1, 3}, order, order)
	vs = CheckConsistentCut("t0", rep)
	if len(vs) == 0 {
		t.Fatal("prefix hole not reported")
	}
}

func TestCheckZeroResidue(t *testing.T) {
	if vs := CheckZeroResidue("t0", nil); len(vs) != 0 {
		t.Fatalf("clean residue flagged: %v", vs)
	}
	vs := CheckZeroResidue("t0", []string{"main/volume/t0-sales", "main/journal/t0-cg"})
	if len(vs) != 2 {
		t.Fatalf("want one violation per leak, got %v", vs)
	}
}

func TestCheckFailClosed(t *testing.T) {
	ids := []storage.VolumeID{"v0", "v1", "v2", "v3"}
	for _, shards := range []int{1, 2} {
		env := sim.NewEnv(1)
		a := storage.NewArray(env, "m", storage.Config{})
		for _, id := range ids {
			if _, err := a.CreateVolume(id, 16); err != nil {
				t.Fatal(err)
			}
		}
		sj, err := a.CreateConsistencyGroup("cg", ids, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			v, _ := a.Volume(id)
			stamped(t, env, v, 0, uint64(i+1)) // one pending record each
		}
		if vs := CheckFailClosed("t0", a, sj); len(vs) != 0 {
			t.Fatalf("shards=%d: unbounded journal flagged: %v", shards, vs)
		}
		// Squeeze the capacity under the backlog: the whole group must fail
		// closed immediately even though per-shard backlogs differ, members
		// tracking — and then the checker is clean again.
		sj.SetCapacityPerShard(1)
		if !sj.Overflowed() {
			t.Fatalf("shards=%d: squeeze under backlog did not overflow", shards)
		}
		for _, sh := range sj.Shards() {
			if !sh.Overflowed() {
				t.Fatalf("shard %s escaped the group overflow", sh.ID())
			}
		}
		if vs := CheckFailClosed("t0", a, sj); len(vs) != 0 {
			t.Fatalf("shards=%d: fail-closed overflow flagged: %v", shards, vs)
		}
		// Break the contract behind the checker's back: a member stops tracking.
		v, _ := a.Volume("v2")
		v.StopChangeTracking()
		vs := CheckFailClosed("t0", a, sj)
		if len(vs) != 1 || !strings.Contains(vs[0].Detail, "v2 is not change tracking") {
			t.Fatalf("shards=%d: broken tracking not reported: %v", shards, vs)
		}
	}
}

// fakeRep is a Named engine, what CheckNoOrphanGroups reads.
type fakeRep struct{ name string }

func (f fakeRep) Name() string { return f.name }

// fakeImage is an Image, what CheckEpochBoundary and CheckRoundTrip read.
type fakeImage struct {
	fakeRep
	applied, unapplied []storage.Record
	committed, barrier int64
	lanes              int
	resharding         bool
	members            []storage.VolumeID
}

func (f fakeImage) UnappliedRecords() []storage.Record { return f.unapplied }
func (f fakeImage) CommittedEpoch() int64              { return f.committed }
func (f fakeImage) MigrationBarrier() int64            { return f.barrier }
func (f fakeImage) Lanes() int                         { return f.lanes }
func (f fakeImage) Resharding() bool                   { return f.resharding }
func (f fakeImage) Members() []storage.VolumeID        { return f.members }

// AppliedHighWater folds the applied records the way the engine's install
// does.
func (f fakeImage) AppliedHighWater() (globalSeq, epoch int64) {
	for _, r := range f.applied {
		globalSeq, epoch = max(globalSeq, r.GlobalSeq), max(epoch, r.Epoch)
	}
	return globalSeq, epoch
}

func TestCheckEpochBoundaryBothCommitRules(t *testing.T) {
	recs := func(epoch int64, seqs ...int64) []storage.Record {
		out := make([]storage.Record, len(seqs))
		for i, s := range seqs {
			out[i] = storage.Record{GlobalSeq: s, Epoch: epoch}
		}
		return out
	}
	for _, c := range []struct {
		name string
		img  fakeImage
		want string // substring of the one expected violation, "" = holds
	}{
		{name: "one lane commits the open epoch batch by batch",
			img: fakeImage{lanes: 1, applied: recs(1, 1, 2, 3), unapplied: recs(1, 4, 5)}},
		{name: "just grown: the lane's own records sit under the migration barrier",
			img: fakeImage{lanes: 4, resharding: true, barrier: 1, applied: recs(1, 1, 2), unapplied: recs(2, 3)}},
		{name: "barrier commit bounded by the committed epoch",
			img: fakeImage{lanes: 4, committed: 2, applied: recs(2, 1, 2, 3), unapplied: recs(3, 4)}},
		{name: "barrier leaked an unsealed epoch",
			img:  fakeImage{lanes: 4, committed: 2, barrier: 1, applied: recs(3, 1, 2), unapplied: recs(3, 3)},
			want: "epoch 3 past committed barrier 2"},
		{name: "shrinking window still under the barrier rule",
			img:  fakeImage{lanes: 1, resharding: true, committed: 4, barrier: 4, applied: recs(5, 1), unapplied: recs(5, 2)},
			want: "epoch 5 past committed barrier 4"},
		{name: "image with a hole",
			img:  fakeImage{lanes: 1, applied: recs(1, 1, 2, 5), unapplied: recs(1, 3, 4)},
			want: "not an ack-order prefix"},
	} {
		c.img.name = "g"
		vs := CheckEpochBoundary("t0", c.img)
		switch {
		case c.want == "" && len(vs) != 0:
			t.Errorf("%s: flagged %v", c.name, vs)
		case c.want != "" && (len(vs) != 1 || !strings.Contains(vs[0].Detail, c.want)):
			t.Errorf("%s: violations = %v, want one containing %q", c.name, vs, c.want)
		}
	}
}

func TestCheckNoOrphanGroups(t *testing.T) {
	owner := map[string]string{"g-a": "ns-a", "g-b": "ns-b"}
	groups := []fakeRep{{name: "g-b"}, {name: "g-a"}, {name: "g-c"}}
	nsOf := func(g fakeRep) string { return owner[g.Name()] }
	live := func(ns string) bool { return ns == "ns-a" }
	vs := CheckNoOrphanGroups(groups, nsOf, live)
	// g-a is owned and live; g-b outlived its tenant; g-c is unowned.
	// The checker sorts by name, so g-b's violation precedes g-c's.
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "g-b") || !strings.Contains(vs[1].String(), "g-c") {
		t.Fatalf("order/content wrong: %v", vs)
	}
}

func TestCheckRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	backup := storage.NewArray(env, "backup", storage.Config{})
	main := storage.NewArray(env, "main", storage.Config{})
	for _, a := range []*storage.Array{backup, main} {
		if _, err := a.CreateVolume("v", 16); err != nil {
			t.Fatal(err)
		}
	}
	bv, _ := backup.Volume("v")
	mv, _ := main.Volume("v")
	size := bv.BlockSize()
	full := make([]byte, size)
	full[0] = 0xAA
	bv.Poke(0, full)
	mv.Poke(0, full)
	mv.Poke(1, make([]byte, size)) // a zero block against one never written
	bv.Poke(2, []byte{0xAA})       // a prefix against the whole block it reads as
	mv.Poke(2, full)
	rev := fakeImage{fakeRep: fakeRep{name: "fb-g"}, lanes: 2, members: []storage.VolumeID{"v"}}
	if vs := CheckRoundTrip("t0", rev, backup, main); len(vs) != 0 {
		t.Fatalf("equal images flagged: %v", vs)
	}
	mv.Poke(3, []byte{1})
	vs := CheckRoundTrip("t0", rev, backup, main)
	if len(vs) != 1 || vs[0].Invariant != "round-trip" || !strings.Contains(vs[0].Detail, "volume v block 3") {
		t.Fatalf("one differing block: violations = %v, want one naming volume v block 3", vs)
	}
}
