package storage

import (
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
			if at := sj.ShardIndexOf(r.Volume); at != k {
				t.Fatalf("shard %d holds record of %s, placed on shard %d", k, r.Volume, at)
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
			if r.Epoch > stats.BarrierEpoch && ShardFor(r.Volume, 4) != k {
				t.Fatalf("post-barrier record of %s on shard %d, want %d", r.Volume, k, ShardFor(r.Volume, 4))
			}
		}
	}
}

func TestReshardShrinkRetiresEmptiedShards(t *testing.T) {
	env, a, sj := shardedFixture(t, 4, 16, 0)
	reshardWrite(t, env, a, sj, 64)
	prePending := sj.Pending()

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
	retired := sj.retired
	if len(retired) != 2 {
		t.Fatalf("retired = %d shards, want 2", len(retired))
	}
	for _, j := range retired {
		if j.Pending() != 0 || len(j.Members()) != 0 {
			t.Fatalf("retired shard %s still has pending=%d members=%d", j.ID(), j.Pending(), len(j.Members()))
		}
	}
	if stats.MovedRecords == 0 || stats.MovedVolumes == 0 {
		t.Fatalf("shrink moved nothing: %+v", stats)
	}
	if n := sj.DecommissionRetired(); n != 2 {
		t.Fatalf("decommissioned %d, want 2", n)
	}
	if len(sj.retired) != 0 {
		t.Fatal("retired list not emptied")
	}
	_ = env
}

// TestReshardResidueReturnsToSnapshot is the reshard leak regression:
// growing and shrinking back, then decommissioning the retired shards, must
// return Array.Residue to the pre-reshard listing (no leaked journal
// regions), keep the backlog whole, and leave no reshard residue behind.
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
	sj.DecommissionRetired()
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
	_ = env
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
	// no shards created or retired.
	if sj.Epoch() != epoch || sj.Pending() != pending || sj.ShardCount() != 4 ||
		len(sj.retired) != 0 || sj.Reshards() != 0 {
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
