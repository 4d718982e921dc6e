package replication

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// shardedRig is a two-site fixture with vols volumes on each side, a
// consistency group over all of them, and one link pair per lane.
type shardedRig struct {
	env    *sim.Env
	main   *storage.Array
	backup *storage.Array
	vols   []storage.VolumeID
	sj     *storage.ShardedJournal
	g      *Group
}

func newShardedRig(t testing.TB, shards, vols int, linkCfg netlink.Config, cfg Config) *shardedRig {
	t.Helper()
	r := newBareRig(t, vols)
	r.wire(t, lanePaths(r.env, shards, linkCfg), cfg)
	return r
}

// newBareRig builds the two arrays and their volumes; wire adds the group.
func newBareRig(t testing.TB, vols int) *shardedRig {
	t.Helper()
	env := sim.NewEnv(1)
	r := &shardedRig{env: env,
		main:   storage.NewArray(env, "main", storage.Config{}),
		backup: storage.NewArray(env, "backup", storage.Config{})}
	for i := 0; i < vols; i++ {
		id := storage.VolumeID(fmt.Sprintf("vol-%02d", i))
		for _, a := range []*storage.Array{r.main, r.backup} {
			if _, err := a.CreateVolume(id, 256); err != nil {
				t.Fatal(err)
			}
		}
		r.vols = append(r.vols, id)
	}
	return r
}

// wire creates the consistency group with one shard per path and the engine
// draining it.
func (r *shardedRig) wire(t testing.TB, paths []fabric.Path, cfg Config) {
	t.Helper()
	sj, err := r.main.CreateConsistencyGroup("cg", r.vols, len(paths))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(r.env, "cg", sj, r.backup, paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.sj, r.g = sj, g
}

// seqWrite writes one block carrying the global write sequence i: volume
// round-robin, ascending blocks, the sequence in the first 8 data bytes.
func (r *shardedRig) seqWrite(p *sim.Proc, t testing.TB, i int) {
	v, _ := r.main.Volume(r.vols[i%len(r.vols)])
	buf := make([]byte, r.main.Config().BlockSize)
	binary.BigEndian.PutUint64(buf, uint64(i+1))
	if _, err := v.Write(p, int64(i/len(r.vols)), buf); err != nil {
		t.Errorf("write %d: %v", i, err)
	}
}

// stampOf reads the sequence stamp of a stored block, which may be a prefix
// shorter than the stamp (stamp 256 is 7 bytes): the missing bytes are zeroes.
func stampOf(blk []byte) uint64 {
	var stamp [8]byte
	copy(stamp[:], blk)
	return binary.BigEndian.Uint64(stamp[:])
}

// presentSeqs scans the backup image for sequence-stamped blocks.
func (r *shardedRig) presentSeqs() map[uint64]bool {
	out := map[uint64]bool{}
	for _, id := range r.vols {
		tv, _ := r.backup.Volume(id)
		for _, b := range tv.WrittenBlocks() {
			out[stampOf(tv.Peek(b))] = true
		}
	}
	return out
}

// exactPrefix reports whether seqs == {1..K} and returns K.
func exactPrefix(seqs map[uint64]bool) (int, bool) {
	for k := uint64(1); ; k++ {
		if !seqs[k] {
			return int(k - 1), len(seqs) == int(k-1)
		}
	}
}

// TestShardedDrainConvergesToSourceImage: every record lands, per-shard
// apply order is strict sequence order, and the target content matches the
// source byte for byte after CatchUp.
func TestShardedDrainConvergesToSourceImage(t *testing.T) {
	r := newShardedRig(t, 4, 8, netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e8}, Config{BatchMax: 8})
	r.g.Start()
	const writes = 96
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
		if !r.g.CatchUp(p) {
			t.Error("catch-up interrupted")
		}
	})
	r.env.Run(0)
	if r.g.Backlog() != 0 || r.g.AppliedRecords() != writes {
		t.Fatalf("backlog=%d applied=%d, want 0/%d", r.g.Backlog(), r.g.AppliedRecords(), writes)
	}
	if k, ok := exactPrefix(r.presentSeqs()); !ok || k != writes {
		t.Fatalf("target image not the full prefix: k=%d ok=%v", k, ok)
	}
	for _, id := range r.vols {
		sv, _ := r.main.Volume(id)
		tv, _ := r.backup.Volume(id)
		for _, b := range sv.WrittenBlocks() {
			if !bytes.Equal(sv.Peek(b), tv.Peek(b)) {
				t.Fatalf("content diverged at %s[%d]", id, b)
			}
		}
	}
	// Per-volume ordering: every volume's records were installed in
	// increasing ack order.
	if r.g.OrderBreaks() != 0 {
		t.Fatalf("%d installs out of per-volume ack order", r.g.OrderBreaks())
	}
	if r.g.EpochCommits() == 0 || r.g.CommittedEpoch() == 0 {
		t.Fatalf("no epochs committed: %v", r.g)
	}
	if r.g.RPO(r.env.Now()) != 0 {
		t.Fatalf("RPO nonzero after catch-up: %v", r.g.RPO(r.env.Now()))
	}
}

// TestShardedFailoverImageIsEpochCut pins the barrier protocol: splitting
// the pair mid-drain leaves the backup image exactly at a committed epoch
// boundary — an exact prefix of the cross-volume ack order, never a
// half-applied epoch — and accounts every missing record as unapplied.
func TestShardedFailoverImageIsEpochCut(t *testing.T) {
	// Slow links so a deep backlog is guaranteed when the split hits.
	r := newShardedRig(t, 4, 8, netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}, Config{BatchMax: 8})
	r.g.Start()
	const writes = 120
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
	})
	var vols []*storage.Volume
	r.env.Process("disaster", func(p *sim.Proc) {
		p.Sleep(60 * time.Millisecond) // mid-drain: writers done, backlog deep
		var err error
		vols, err = r.g.Failover()
		if err != nil {
			t.Error(err)
		}
	})
	r.env.Run(0)
	if len(vols) != len(r.vols) {
		t.Fatalf("failover returned %d volumes", len(vols))
	}
	seqs := r.presentSeqs()
	k, ok := exactPrefix(seqs)
	if !ok {
		t.Fatalf("failover image is not an exact prefix: %d seqs, prefix %d", len(seqs), k)
	}
	if k == 0 {
		t.Fatal("nothing committed before the split — scenario degenerate")
	}
	if k >= writes {
		t.Fatal("everything committed before the split — scenario degenerate")
	}
	if int(r.g.AppliedRecords()) != k {
		t.Fatalf("applied=%d but image prefix=%d", r.g.AppliedRecords(), k)
	}
	if got := len(r.g.UnappliedRecords()); got != writes-k {
		t.Fatalf("unapplied=%d, want %d", got, writes-k)
	}
	r.env.Process("promoted", func(p *sim.Proc) {
		for _, tv := range vols {
			if _, err := tv.Write(p, 0, []byte{1}); err != nil {
				t.Errorf("failover target refuses writes: %v", err)
			}
		}
	})
	r.env.Run(0)
	if !r.g.FailedOver() || !r.g.Stopped() {
		t.Fatal("failover state flags wrong")
	}
}

// TestGroupValidation covers constructor guardrails.
func TestGroupValidation(t *testing.T) {
	env := sim.NewEnv(1)
	main := storage.NewArray(env, "main", storage.Config{})
	backup := storage.NewArray(env, "backup", storage.Config{})
	main.CreateVolume("a", 64)
	backup.CreateVolume("a", 64)
	sj, err := main.CreateConsistencyGroup("cg", []storage.VolumeID{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pair := netlink.NewPair(env, netlink.Config{})
	if _, err := NewGroup(env, "g", sj, backup, []fabric.Path{pair.Forward}, Config{}); err == nil {
		t.Fatal("path/shard count mismatch accepted")
	}
}

// TestShardedLaneScratchIntegrity drives many small batches through all
// lanes and verifies every backup block holds the payload written to it —
// a shared cross-lane scratch buffer would land one record's payload under
// another's volume and block.
func TestShardedLaneScratchIntegrity(t *testing.T) {
	r := newShardedRig(t, 4, 8, netlink.Config{Propagation: 500 * time.Microsecond, BandwidthBps: 1e7}, Config{BatchMax: 4})
	r.g.Start()
	const writes = 64
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
		r.g.CatchUp(p)
	})
	r.env.Run(0)
	if r.g.AppliedRecords() != writes {
		t.Fatalf("applied %d records, want %d", r.g.AppliedRecords(), writes)
	}
	for vi, id := range r.vols {
		tv, _ := r.backup.Volume(id)
		for b := int64(0); b < writes/int64(len(r.vols)); b++ {
			blk := tv.Peek(b)
			if blk == nil {
				t.Fatalf("%s[%d] never applied", id, b)
			}
			if got, want := stampOf(blk), uint64(b)*uint64(len(r.vols))+uint64(vi)+1; got != want {
				t.Fatalf("%s[%d] holds the payload of write %d, want write %d", id, b, got, want)
			}
		}
	}
}
