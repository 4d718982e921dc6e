package storage

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// reshardWrite pushes n writes round-robin across the group's members so
// every shard accumulates backlog, returning the per-volume write counts.
func reshardWrite(t *testing.T, env *sim.Env, a *Array, sj *ShardedJournal, n int) map[VolumeID]int {
	t.Helper()
	counts := make(map[VolumeID]int)
	members := sj.Members()
	env.Process("writer", func(p *sim.Proc) {
		buf := make([]byte, a.Config().BlockSize)
		for i := 0; i < n; i++ {
			id := members[i%len(members)]
			v, err := a.Volume(id)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := v.Write(p, int64(counts[id]), buf); err != nil {
				t.Error(err)
				return
			}
			counts[id]++
		}
	})
	env.Run(0)
	return counts
}

// checkShardInvariants verifies, for every shard, that the backlog is
// GlobalSeq-ascending (ack order) and epoch-monotone, and that every record
// sits on the shard its volume is currently placed on.
func checkShardInvariants(t *testing.T, sj *ShardedJournal) {
	t.Helper()
	for k, shard := range sj.shards {
		var lastSeq, lastEpoch int64
		for _, r := range shard.PendingRecords() {
			if r.GlobalSeq <= lastSeq {
				t.Fatalf("shard %d backlog not GlobalSeq-ascending (%d after %d)", k, r.GlobalSeq, lastSeq)
			}
			if r.Epoch < lastEpoch {
				t.Fatalf("shard %d backlog epoch regressed (%d after %d)", k, r.Epoch, lastEpoch)
			}
			lastSeq, lastEpoch = r.GlobalSeq, r.Epoch
			if at := sj.ShardIndexOf(sj.members[r.Member]); at != k {
				t.Fatalf("shard %d holds record of %s, placed on shard %d", k, sj.members[r.Member], at)
			}
		}
	}
}

func TestReshardGrowMigratesOnlyChangedPlacements(t *testing.T) {
	env, a, sj := shardedFixture(t, 1, 16, 0)
	reshardWrite(t, env, a, sj, 64)
	preEpoch := sj.Epoch()
	prePending := sj.Pending()

	stats, err := sj.Reshard(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.From != 1 || stats.To != 4 || stats.BarrierEpoch != preEpoch {
		t.Fatalf("stats = %+v, want 1->4 with barrier %d", stats, preEpoch)
	}
	if sj.Epoch() != preEpoch+1 {
		t.Fatalf("open epoch = %d, want %d (barrier sealed)", sj.Epoch(), preEpoch+1)
	}
	// Placement must equal the stable hash over the new count, and only
	// volumes whose assignment changed may have moved.
	wantMoved := 0
	for _, v := range sj.Members() {
		if got, want := sj.ShardIndexOf(v), ShardFor(v, 4); got != want {
			t.Fatalf("%s on shard %d, want %d", v, got, want)
		}
		if ShardFor(v, 4) != 0 {
			wantMoved++
		}
	}
	if stats.MovedVolumes != wantMoved {
		t.Fatalf("moved %d volumes, want %d", stats.MovedVolumes, wantMoved)
	}
	if sj.Pending() != prePending {
		t.Fatalf("pending %d after reshard, want %d (migration must not lose records)", sj.Pending(), prePending)
	}
	checkShardInvariants(t, sj)

	// Post-barrier writes land on the new placement with epoch > barrier.
	reshardWrite(t, env, a, sj, 32)
	checkShardInvariants(t, sj)
	for k, shard := range sj.shards {
		for _, r := range shard.PendingRecords() {
			if id := sj.members[r.Member]; r.Epoch > stats.BarrierEpoch && ShardFor(id, 4) != k {
				t.Fatalf("post-barrier record of %s on shard %d, want %d", id, k, ShardFor(id, 4))
			}
		}
	}
}

func TestReshardShrinkRetiresEmptiedShards(t *testing.T) {
	env, a, sj := shardedFixture(t, 4, 16, 0)
	reshardWrite(t, env, a, sj, 64)
	prePending, old := sj.Pending(), sj.Shards()

	stats, err := sj.Reshard(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj.Shards()) != 2 {
		t.Fatalf("shards = %d, want 2", len(sj.Shards()))
	}
	if sj.Pending() != prePending {
		t.Fatalf("pending %d, want %d", sj.Pending(), prePending)
	}
	checkShardInvariants(t, sj)
	// The dropped shards are empty and off the array at once: every volume
	// they held moved, so nothing is left to decommission.
	for _, j := range old[2:] {
		if j.Pending() != 0 || len(j.Members()) != 0 {
			t.Fatalf("dropped shard %s still has pending=%d members=%d", j.ID(), j.Pending(), len(j.Members()))
		}
		if res := a.Residue(j.ID()); len(res) != 0 {
			t.Fatalf("dropped shard %s still on the array: %v", j.ID(), res)
		}
	}
	if stats.MovedRecords == 0 || stats.MovedVolumes == 0 {
		t.Fatalf("shrink moved nothing: %+v", stats)
	}
}

// TestReshardResidueReturnsToSnapshot is the reshard leak regression:
// growing and shrinking back must return Array.Residue to the pre-reshard
// listing at once (no leaked journal regions), keep the backlog whole, and
// leave no reshard residue behind; growing back again needs no
// decommission step first.
func TestReshardResidueReturnsToSnapshot(t *testing.T) {
	env, a, sj := shardedFixture(t, 2, 16, 0)
	reshardWrite(t, env, a, sj, 48)
	before, pending := a.Residue(""), sj.Pending()

	if _, err := sj.Reshard(4); err != nil {
		t.Fatal(err)
	}
	if mid := a.Residue(""); len(mid) != len(before)+2 {
		t.Fatalf("array objects after grow = %v, want two shard journals more than %v", mid, before)
	}
	if _, err := sj.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if after := a.Residue(""); !slices.Equal(after, before) || sj.Pending() != pending {
		t.Fatalf("after reshard round-trip: objects %v, pending %d; want pre-reshard %v, %d", after, sj.Pending(), before, pending)
	}
	for _, k := range []int{2, 3} {
		id := fmt.Sprintf("cg#s%d", k)
		if res := a.Residue(id); len(res) != 0 {
			t.Fatalf("residue for %s: %v", id, res)
		}
	}
	checkShardInvariants(t, sj)
	if _, err := sj.Reshard(4); err != nil {
		t.Fatalf("growing back to 4 shards: %v", err)
	}
	if again := a.Residue(""); len(again) != len(before)+2 || sj.Pending() != pending {
		t.Fatalf("array objects after growing back = %v, pending %d; want two shard journals more than %v, %d", again, sj.Pending(), before, pending)
	}
	checkShardInvariants(t, sj)
}

func TestReshardSameCountIsStructuralNoop(t *testing.T) {
	env, a, sj := shardedFixture(t, 4, 8, 0)
	reshardWrite(t, env, a, sj, 16)
	epoch, pending := sj.Epoch(), sj.Pending()
	stats, err := sj.Reshard(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BarrierEpoch != 0 || stats.MovedRecords != 0 || stats.MovedVolumes != 0 {
		t.Fatalf("no-op reshard did work: %+v", stats)
	}
	if sj.Epoch() != epoch || sj.Pending() != pending {
		t.Fatal("no-op reshard disturbed epoch or backlog")
	}
	if sj.Reshards() != 0 || sj.MovedRecords() != 0 {
		t.Fatalf("no-op reshard bumped counters: reshards=%d moved=%d", sj.Reshards(), sj.MovedRecords())
	}
	_, _ = env, a
}

func TestReshardRefusedWhileOverflowed(t *testing.T) {
	env, a, sj := shardedFixture(t, 2, 8, 256)
	// Overflow the group: tiny per-shard capacity, enough writes.
	reshardWrite(t, env, a, sj, 32)
	if !sj.Overflowed() {
		t.Fatal("fixture never overflowed")
	}
	if _, err := sj.Reshard(4); err == nil {
		t.Fatal("reshard on an overflowed group must refuse")
	}
}

// TestReshardRespectsShardCapacity pins the sized-group guard: a shrink
// whose migration would overfill a destination's journal region is refused
// with no side effects (the fail-closed overflow invariant cannot be
// bypassed by re-placement), and succeeds once the backlog drains.
func TestReshardRespectsShardCapacity(t *testing.T) {
	env, a, sj := shardedFixture(t, 4, 16, 32*4096)
	// Fill well past one shard's capacity in aggregate, but under per-shard.
	reshardWrite(t, env, a, sj, 64)
	if sj.Overflowed() {
		t.Fatal("fixture overflowed; writes exceed per-shard capacity")
	}
	epoch, pending := sj.Epoch(), sj.Pending()
	if _, err := sj.Reshard(1); err == nil {
		t.Fatal("shrink past destination capacity must refuse")
	}
	// Refusal has zero side effects: no barrier sealed, nothing migrated,
	// no shards created or dropped.
	if sj.Epoch() != epoch || sj.Pending() != pending || sj.ShardCount() != 4 ||
		sj.Reshards() != 0 {
		t.Fatalf("refused reshard left side effects: epoch=%d pending=%d shards=%d",
			sj.Epoch(), sj.Pending(), sj.ShardCount())
	}
	if res := a.Residue("cg#s4"); len(res) != 0 {
		t.Fatal("refused reshard registered a shard journal")
	}
	// Drain the backlog; the same reshard now fits and succeeds.
	for _, j := range sj.Shards() {
		for j.TryTakeInto(nil, 16) != nil {
		}
	}
	if _, err := sj.Reshard(1); err != nil {
		t.Fatalf("reshard after drain: %v", err)
	}
	if sj.ShardCount() != 1 {
		t.Fatalf("shards = %d, want 1", sj.ShardCount())
	}
}

// TestReshardWakesShardsInAttachOrder pins the order in which a reshard
// wakes lanes parked on NotEmpty: a moved volume with pending records wakes
// its new shard, the members taken in attach order — not in the records'
// ack order, nor in shard order. A 4->2 shrink moves shard 2's volumes to
// shard 0 and shard 3's to shard 1; the fixture attaches the volume bound
// for shard 1 first and writes the one bound for shard 0 first, so the three
// orders disagree.
func TestReshardWakesShardsInAttachOrder(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	var to0, to1 VolumeID
	for i := 0; to0 == "" || to1 == ""; i++ {
		id := VolumeID(fmt.Sprintf("vol-%02d", i))
		switch ShardFor(id, 4) {
		case 2:
			to0 = cmp.Or(to0, id)
		case 3:
			to1 = cmp.Or(to1, id)
		}
	}
	for _, id := range []VolumeID{to1, to0} {
		if _, err := a.CreateVolume(id, 16); err != nil {
			t.Fatal(err)
		}
	}
	sj, err := a.CreateConsistencyGroup("cg", []VolumeID{to1, to0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	old := sj.Shards()
	var woke []int
	for _, k := range []int{0, 1} {
		env.Process(fmt.Sprintf("lane-%d", k), func(p *sim.Proc) {
			p.Wait(old[k].NotEmpty())
			woke = append(woke, k)
		})
	}
	env.Process("writer", func(p *sim.Proc) {
		buf := make([]byte, a.Config().BlockSize)
		for _, id := range []VolumeID{to0, to1} {
			v, _ := a.Volume(id)
			if _, err := v.Write(p, 0, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if len(woke) != 0 {
			t.Errorf("lanes woke before the reshard: %v", woke)
		}
		if _, err := sj.Reshard(2); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if !slices.Equal(woke, []int{1, 0}) {
		t.Fatalf("lanes woke in order %v, want [1 0] (attach order)", woke)
	}
}
