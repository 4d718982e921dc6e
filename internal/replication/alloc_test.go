package replication

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Allocation pins for the one engine at its degenerate parameters. A fleet
// creates one consistency group and one engine per tenant, and four of the
// benchmark's five workloads drain on one lane. Creating a two-volume group
// plus its engine costs 10 allocations, under -race too; a steady-state batch
// of 8 writes costs nothing.
const (
	createAllocsBudget = 10
	batchWrites        = 8
)

// allocRig is a two-site pair with `groups` two-volume volume sets.
type allocRig struct {
	env          *sim.Env
	main, backup *storage.Array
	link         fabric.Path
	members      [][]storage.VolumeID // each set's volume IDs
}

func newAllocRig(groups int) *allocRig {
	env := sim.NewEnv(1)
	r := &allocRig{
		env:    env,
		main:   storage.NewArray(env, "main", storage.Config{}),
		backup: storage.NewArray(env, "backup", storage.Config{}),
		link:   netlink.NewPair(env, netlink.Config{Propagation: time.Millisecond}).Forward,
	}
	for i := 0; i < groups; i++ {
		r.members = append(r.members, []storage.VolumeID{
			storage.VolumeID(fmt.Sprintf("a%03d", i)), storage.VolumeID(fmt.Sprintf("b%03d", i)),
		})
		for _, id := range r.vols(i) {
			r.main.CreateVolume(id, 64)
			r.backup.CreateVolume(id, 64)
		}
	}
	return r
}

func (r *allocRig) vols(i int) []storage.VolumeID { return r.members[i] }

// create builds group i and its one-lane engine the way the replication
// plugin does: a fresh member slice per group, of IDs its claims already hold,
// each twin under its member's ID on the backup array. The rig makes the IDs
// before anything is measured: fmt.Sprintf takes its printer from a sync.Pool,
// which drops a random quarter of its Puts under -race, so formatting them here
// would add a printer and its buffer at random (12 to 14 allocations a create).
func (r *allocRig) create(tb testing.TB, id string, i int) *Group {
	j, err := r.main.CreateConsistencyGroup(id, slices.Clone(r.vols(i)), 1)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGroup(r.env, id, j, r.backup, []fabric.Path{r.link}, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestCreateGroupAndEngineAllocBudget(t *testing.T) {
	const runs = 20
	r := newAllocRig(runs + 1) // AllocsPerRun adds a warm-up call
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("cg%03d", i)
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		r.create(t, ids[i], i)
		i++
	})
	if n > createAllocsBudget {
		t.Fatalf("consistency group + one-lane engine cost %v allocations, budget %d", n, createAllocsBudget)
	}
	t.Logf("consistency group + one-lane engine: %v allocations", n)
}

func TestLaneCommitBatchAllocBudget(t *testing.T) {
	r := newAllocRig(1)
	g := r.create(t, "cg", 0)
	g.Start()
	v, _ := r.main.Volume(r.vols(0)[0])
	buf := make([]byte, r.main.Config().BlockSize)
	r.env.Process("load", func(p *sim.Proc) {
		for {
			for k := int64(0); k < batchWrites; k++ {
				v.Write(p, k, buf)
			}
			g.CatchUp(p)
		}
	})
	advance := func() { r.env.Run(r.env.Now() + 100*time.Millisecond) }
	advance() // warm up: scratch buffers and queues at their working size
	before := g.AppliedRecords()
	const runs = 10
	perRun := testing.AllocsPerRun(runs, advance)
	batches := float64(g.AppliedRecords()-before) / batchWrites
	perBatch := perRun * (runs + 1) / batches
	if g.EpochCommits() != 0 {
		t.Fatalf("one lane declared %d epoch commits; it must commit its own batches", g.EpochCommits())
	}
	if perBatch != 0 {
		t.Fatalf("steady-state lane-commit batch of %d writes allocates %.2f, want 0", batchWrites, perBatch)
	}
}

// TestAppliedPayloadIsNotRetained: once both sites have overwritten a block,
// the engine holds nothing of the record that carried its old payload, so
// an engine's memory follows its backlog, not its lifetime.
func TestAppliedPayloadIsNotRetained(t *testing.T) {
	r := newAllocRig(1)
	g := r.create(t, "cg", 0)
	g.Start()
	v, _ := r.main.Volume(r.vols(0)[0])
	var first weak.Pointer[byte]
	r.env.Process("load", func(p *sim.Proc) {
		buf := make([]byte, r.main.Config().BlockSize)
		first = weak.Make(&buf[0])
		if _, err := v.WriteOwned(p, 0, buf); err != nil {
			t.Error(err)
		}
		g.CatchUp(p)
		if _, err := v.Write(p, 0, []byte{1}); err != nil {
			t.Error(err)
		}
		g.CatchUp(p)
		g.Stop()
	})
	r.env.Run(0)
	if g.AppliedRecords() != 2 {
		t.Fatalf("applied %d records, want 2", g.AppliedRecords())
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the first payload is still reachable after both sites overwrote its block")
	}
	runtime.KeepAlive(g)
}

// benchDrain is the replication layer benchmark: stamped block writes spread
// over 16 volumes drain through `lanes` lanes (one link pair each) — lane
// commit at one lane, the epoch barrier above — one applied record per op.
func benchDrain(b *testing.B, lanes int) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e8}
	r := newShardedRig(b, lanes, 16, link, Config{})
	r.g.Start()
	r.env.Process("load", func(p *sim.Proc) {
		for i := 0; ; i++ {
			r.seqWrite(p, b, i%(16*256))
			if i%256 == 255 {
				r.g.CatchUp(p) // bound the backlog the way a paced tenant does
			}
		}
	})
	advance := func(records int64) {
		for want := r.g.AppliedRecords() + records; r.g.AppliedRecords() < want; {
			r.env.Run(r.env.Now() + 10*time.Millisecond)
		}
	}
	advance(1024) // warm up: scratch and staging at working size
	b.ReportAllocs()
	b.ResetTimer()
	advance(int64(b.N))
}

func BenchmarkDrainOneLane(b *testing.B)   { benchDrain(b, 1) }
func BenchmarkDrainFourLanes(b *testing.B) { benchDrain(b, 4) }
