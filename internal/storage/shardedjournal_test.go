package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// groupAppended is the group's lifetime record count: the sum over its
// shards.
func groupAppended(sj *ShardedJournal) int64 {
	var n int64
	for _, j := range sj.Shards() {
		n += j.Appended()
	}
	return n
}

func shardedFixture(t testing.TB, shards, vols, capacityPerShard int) (*sim.Env, *Array, *ShardedJournal) {
	t.Helper()
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	ids := make([]VolumeID, vols)
	for i := range ids {
		ids[i] = VolumeID(fmt.Sprintf("vol-%02d", i))
		if _, err := a.CreateVolume(ids[i], 256); err != nil {
			t.Fatal(err)
		}
	}
	sj, err := a.CreateConsistencyGroup("cg", ids, shards)
	if err != nil {
		t.Fatal(err)
	}
	sj.SetCapacityPerShard(capacityPerShard)
	return env, a, sj
}

// TestShardPlacementIsStableHash pins the determinism requirement: placement
// is a function of the volume ID alone, so two identically-configured groups
// — even with members attached in a different order, on different arrays —
// place every volume on the same shard.
func TestShardPlacementIsStableHash(t *testing.T) {
	const shards = 4
	mk := func(seed int64, order []VolumeID) *ShardedJournal {
		env := sim.NewEnv(seed)
		a := NewArray(env, "arr", Config{})
		for _, id := range order {
			if _, err := a.CreateVolume(id, 64); err != nil {
				t.Fatal(err)
			}
		}
		sj, err := a.CreateConsistencyGroup("cg", order, shards)
		if err != nil {
			t.Fatal(err)
		}
		return sj
	}
	fwd := make([]VolumeID, 16)
	for i := range fwd {
		fwd[i] = VolumeID(fmt.Sprintf("vol-%02d", i))
	}
	rev := make([]VolumeID, len(fwd))
	for i := range rev {
		rev[i] = fwd[len(fwd)-1-i]
	}
	a, b := mk(1, fwd), mk(99, rev)
	for _, id := range fwd {
		if a.ShardIndexOf(id) != b.ShardIndexOf(id) {
			t.Errorf("%s placed on shard %d vs %d — placement depends on attach order",
				id, a.ShardIndexOf(id), b.ShardIndexOf(id))
		}
		if got := a.ShardIndexOf(id); got != ShardFor(id, shards) {
			t.Errorf("%s: ShardIndexOf=%d, ShardFor=%d", id, got, ShardFor(id, shards))
		}
	}
	// Placement actually spreads: a 16-volume group must use > 1 shard.
	used := map[int]bool{}
	for _, id := range fwd {
		used[a.ShardIndexOf(id)] = true
	}
	if len(used) < 2 {
		t.Errorf("all 16 volumes hashed onto one shard: %v", used)
	}
}

// TestShardedWritesRouteToPlacedShard checks the write path: a journaled
// write lands on exactly the volume's placed shard, with that shard's own
// sequence and the group's open epoch.
func TestShardedWritesRouteToPlacedShard(t *testing.T) {
	env, a, sj := shardedFixture(t, 4, 8, 0)
	env.Process("w", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			v, _ := a.Volume(VolumeID(fmt.Sprintf("vol-%02d", i)))
			if _, err := v.Write(p, 0, block(a, byte(i))); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run(0)
	if sj.Pending() != 8 {
		t.Fatalf("pending = %d, want 8", sj.Pending())
	}
	for k, shard := range sj.Shards() {
		for _, r := range shard.PendingRecords() {
			if sj.ShardIndexOf(r.Volume) != k {
				t.Errorf("record for %s on shard %d, placed on %d", r.Volume, k, sj.ShardIndexOf(r.Volume))
			}
			if r.Epoch != 1 {
				t.Errorf("record epoch = %d, want open epoch 1", r.Epoch)
			}
		}
	}
	if sealed := sj.SealEpoch(); sealed != 1 {
		t.Fatalf("sealed = %d, want 1", sealed)
	}
	env.Process("w2", func(p *sim.Proc) {
		v, _ := a.Volume("vol-00")
		if _, err := v.Write(p, 1, block(a, 0xEE)); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	shard := sj.Shards()[sj.ShardIndexOf("vol-00")]
	recs := shard.PendingRecords()
	if got := recs[len(recs)-1].Epoch; got != 2 {
		t.Fatalf("post-seal record epoch = %d, want 2", got)
	}
}

// TestShardOverflowFailsWholeGroupClosed extends the WAL-boundary fail-closed
// pattern to sharded journals: when ONE shard's backlog would exceed its
// capacity, the entire group suspends — every shard stops journaling and
// every member volume change-tracks — because a group journaling on some
// shards only cannot replay a consistent cross-shard cut.
func TestShardOverflowFailsWholeGroupClosed(t *testing.T) {
	// Capacity fits exactly two 4KiB records per shard.
	env, a, sj := shardedFixture(t, 2, 4, 2*(4096+recordHeaderBytes))
	var victim VolumeID // any volume on a populated shard
	for _, shard := range sj.Shards() {
		if ms := shard.Members(); len(ms) > 0 {
			victim = ms[0]
			break
		}
	}
	env.Process("w", func(p *sim.Proc) {
		v, _ := a.Volume(victim)
		for i := int64(0); i < 3; i++ { // third append would exceed shard 0
			if _, err := v.Write(p, i, block(a, 0x77)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run(0)
	if !sj.Overflowed() || sj.Overflows() != 1 {
		t.Fatalf("group overflowed=%v overflows=%d, want true/1", sj.Overflowed(), sj.Overflows())
	}
	for k, shard := range sj.Shards() {
		if !shard.Overflowed() {
			t.Errorf("shard %d not suspended after sibling overflow", k)
		}
	}
	appended := groupAppended(sj)
	env.Process("w2", func(p *sim.Proc) {
		// Writes anywhere in the group are tracked, not journaled.
		for _, id := range sj.Members() {
			v, _ := a.Volume(id)
			if _, err := v.Write(p, 10, block(a, 0x78)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run(0)
	if n := groupAppended(sj); n != appended {
		t.Fatalf("suspended group still journaled: appended %d -> %d", appended, n)
	}
	for _, id := range sj.Members() {
		v, _ := a.Volume(id)
		if len(v.ChangedBlocks()) == 0 {
			t.Errorf("%s not change-tracking while suspended", id)
		}
	}
}

// TestShardedTryTakeIntoBuffersAreIndependent pins that per-shard drains can
// reuse one scratch buffer per lane: a batch taken from one shard must not
// alias another shard's buffer or pending state (run under -race in CI).
func TestShardedTryTakeIntoBuffersAreIndependent(t *testing.T) {
	env, a, sj := shardedFixture(t, 2, 4, 0)
	env.Process("w", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			v, _ := a.Volume(VolumeID(fmt.Sprintf("vol-%02d", i)))
			for b := int64(0); b < 4; b++ {
				if _, err := v.Write(p, b, block(a, byte(16*i+int(b)))); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	env.Run(0)
	s0, s1 := sj.Shards()[0], sj.Shards()[1]
	if s0.Pending() == 0 || s1.Pending() == 0 {
		t.Fatalf("fixture degenerate: shard pendings %d/%d", s0.Pending(), s1.Pending())
	}
	var buf0, buf1 []Record
	b0 := s0.TryTakeInto(buf0, 4)
	b1 := s1.TryTakeInto(buf1, 4)
	snapshot := append([]Record(nil), b1...)
	// Overwrite lane 0's batch wholesale; lane 1's batch must be untouched.
	for i := range b0 {
		b0[i] = Record{GlobalSeq: -1, Volume: "poison"}
	}
	for i := range b1 {
		if b1[i].GlobalSeq != snapshot[i].GlobalSeq || b1[i].Volume != snapshot[i].Volume {
			t.Fatalf("shard 1 batch mutated by shard 0 write at %d: %+v", i, b1[i])
		}
	}
	// And the next take on shard 0 reuses ITS buffer without touching b1.
	_ = s0.TryTakeInto(b0, 4)
	for i := range b1 {
		if b1[i].GlobalSeq != snapshot[i].GlobalSeq {
			t.Fatalf("shard 1 batch mutated by shard 0 re-take at %d", i)
		}
	}
}

// TestShardedGroupLifecycleGuards covers creation/deletion error paths.
func TestShardedGroupLifecycleGuards(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	for i := 0; i < 2; i++ {
		if _, err := a.CreateVolume(VolumeID(fmt.Sprintf("vol-%02d", i)), 64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.CreateConsistencyGroup("cg", []VolumeID{"vol-00"}, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	sj, err := a.CreateConsistencyGroup("cg", []VolumeID{"vol-00", "vol-01"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateConsistencyGroup("cg", []VolumeID{"vol-00"}, 2); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	// Attaching an already-grouped volume elsewhere fails and rolls back.
	if _, err := a.CreateConsistencyGroup("cg2", []VolumeID{"vol-01"}, 2); !errors.Is(err, ErrJournalAttached) {
		t.Fatalf("re-attach: %v", err)
	}
	if _, err := a.ShardedJournal("cg2"); err == nil {
		t.Fatal("failed create left a registered group")
	}
	if res := a.Residue(shardJournalID("cg2", 0)); len(res) != 0 {
		t.Fatal("failed create left shard journals behind")
	}
	if err := a.DeleteShardedJournal("cg"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sj.ShardCount(); k++ {
		if res := a.Residue(shardJournalID("cg", k)); len(res) != 0 {
			t.Fatalf("shard %d survives group deletion", k)
		}
	}
	v, _ := a.Volume("vol-00")
	if v.Journal() != nil {
		t.Fatal("member still attached after group deletion")
	}
}

// TestPendingBytesEqualsBacklogScan pins the byte count every capacity check
// reads: after each way the backlog can change — append, take, reshard
// migration in both directions, of a backlog shallow and deeper than one
// segment, overflow and its clearing — every shard's PendingBytes is a whole
// block plus the record header per pending record, and every shard's backlog
// still ascends by GlobalSeq (checkShardInvariants).
func TestPendingBytesEqualsBacklogScan(t *testing.T) {
	env, a, sj := shardedFixture(t, 2, 8, 0)
	reshard := func(n int) func() {
		return func() {
			before := sj.Pending()
			if _, err := sj.Reshard(n); err != nil {
				t.Fatal(err)
			}
			if sj.Pending() != before {
				t.Fatalf("reshard to %d: %d records pending, %d before", n, sj.Pending(), before)
			}
		}
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"append", func() { reshardWrite(t, env, a, sj, 40) }},
		{"take", func() {
			sj.Shards()[0].TryTakeInto(nil, 3)
			sj.Shards()[1].TryTakeInto(make([]Record, 0, 2), 2)
		}},
		{"grow 2->4 migrates", reshard(4)},
		{"append after grow", func() { reshardWrite(t, env, a, sj, 24) }},
		{"shrink 4->1 migrates", reshard(1)},
		{"append past one segment", func() { reshardWrite(t, env, a, sj, 3*segRecords) }},
		{"grow 1->3 migrates a deep backlog", reshard(3)},
		{"shrink 3->1 merges it back", reshard(1)},
		{"overflow", func() {
			sj.SetCapacityPerShard(1)
			if !sj.Overflowed() {
				t.Fatal("squeeze did not overflow")
			}
			reshardWrite(t, env, a, sj, 8) // suspended: tracked, not journaled
		}},
		{"clear", func() {
			sj.SetCapacityPerShard(0)
			sj.ClearOverflow()
			reshardWrite(t, env, a, sj, 8)
		}},
		{"drain", func() {
			for sj.Shards()[0].TryTakeInto(nil, 5) != nil {
			}
		}},
	}
	var seen []*Journal // every shard the group has had, dropped ones too
	for _, st := range steps {
		st.do()
		checkShardInvariants(t, sj)
		for _, j := range sj.Shards() {
			if !slices.Contains(seen, j) {
				seen = append(seen, j)
			}
		}
		for _, j := range seen {
			scan := 0
			for range j.pending.all() {
				scan += a.Config().BlockSize + recordHeaderBytes
			}
			if j.PendingBytes() != scan {
				t.Fatalf("after %s: shard %s PendingBytes = %d, backlog scan = %d", st.name, j.ID(), j.PendingBytes(), scan)
			}
		}
	}
	for _, j := range sj.Shards() {
		if j.PendingBytes() != 0 || j.Pending() != 0 {
			t.Fatalf("drained shard %s still reports %d bytes / %d records", j.ID(), j.PendingBytes(), j.Pending())
		}
	}
}

// BenchmarkJournalAppendTake is the journal's layer benchmark: one journaled
// block write (media + journal append) per op, drained in 64-record batches
// into a reused scratch — the shape every replication lane runs — behind a
// backlog held at 0 records (shallow) or at 8,192 (deep, a slow link's).
func BenchmarkJournalAppendTake(b *testing.B) {
	for _, c := range []struct {
		name string
		held int
	}{{"shallow", 0}, {"deep", 8192}} {
		b.Run(c.name, func(b *testing.B) {
			env, a, sj := shardedFixture(b, 1, 1, 0)
			v, _ := a.Volume(sj.Members()[0])
			j := sj.Shards()[0]
			buf := make([]byte, a.Config().BlockSize)
			scratch := make([]Record, 0, 64)
			done := 0
			env.Process("load", func(p *sim.Proc) {
				for {
					if _, err := v.Write(p, int64(done%256), buf); err != nil {
						b.Error(err)
						return
					}
					if done++; done > c.held && done%64 == 0 {
						scratch = j.TryTakeInto(scratch, 64)
					}
				}
			})
			perOp := a.Config().WriteLatency + a.Config().JournalLatency
			advance := func(n int) { env.Run(env.Now() + time.Duration(n)*perOp) }
			advance(c.held + 2*segRecords) // warm up: backlog and scratch at their working size
			if j.Pending() < c.held {
				b.Fatalf("backlog of %d records, want %d held", j.Pending(), c.held)
			}
			b.ReportAllocs()
			b.ResetTimer()
			advance(b.N)
		})
	}
}
