package replication

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// rig is a two-site fixture: main and backup arrays joined by a link pair,
// with sales+stock volumes on both sides.
type rig struct {
	env    *sim.Env
	main   *storage.Array
	backup *storage.Array
	links  *netlink.Pair
	sales  *storage.Volume
	stock  *storage.Volume
}

func newRig(t *testing.T, linkCfg netlink.Config) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	main := storage.NewArray(env, "main", storage.Config{})
	backup := storage.NewArray(env, "backup", storage.Config{})
	for _, a := range []*storage.Array{main, backup} {
		if _, err := a.CreateVolume("sales", 256); err != nil {
			t.Fatal(err)
		}
		if _, err := a.CreateVolume("stock", 256); err != nil {
			t.Fatal(err)
		}
	}
	sales, _ := main.Volume("sales")
	stock, _ := main.Volume("stock")
	return &rig{
		env:    env,
		main:   main,
		backup: backup,
		links:  netlink.NewPair(env, linkCfg),
		sales:  sales,
		stock:  stock,
	}
}

func (r *rig) newCG(t *testing.T, cfg Config) *Group {
	t.Helper()
	return r.newSizedCG(t, 0, cfg)
}

// newSizedCG is newCG over a journal bounded to capacity bytes (0 = unlimited).
func (r *rig) newSizedCG(t *testing.T, capacity int, cfg Config) *Group {
	t.Helper()
	j, err := r.main.CreateConsistencyGroup("cg", []storage.VolumeID{"sales", "stock"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.SetCapacityPerShard(capacity)
	g, err := NewGroup(r.env, "cg", j, r.backup, []fabric.Path{r.links.Forward}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fill(a *storage.Array, b byte) []byte {
	buf := make([]byte, a.Config().BlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// A member's backup twin is the target volume with the member's own ID; a
// group whose member has none there is refused, by that member's name.
func TestNewGroupRequiresEveryTwin(t *testing.T) {
	r := newRig(t, netlink.Config{})
	if _, err := r.main.CreateVolume("orders", 256); err != nil {
		t.Fatal(err)
	}
	path := []fabric.Path{r.links.Forward}
	j, _ := r.main.CreateConsistencyGroup("cg", []storage.VolumeID{"sales", "orders", "stock"}, 1)
	_, err := NewGroup(r.env, "g", j, r.backup, path, Config{})
	if err == nil {
		t.Fatal("member without a twin accepted")
	}
	if !strings.Contains(err.Error(), "orders") || strings.Contains(err.Error(), "sales") {
		t.Fatalf("refusal %q does not name the twinless member alone", err)
	}
	if _, err := r.backup.CreateVolume("orders", 256); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroup(r.env, "g", j, r.backup, path, Config{}); err != nil {
		t.Fatalf("group with every twin refused: %v", err)
	}
}

func TestADCDrainsInOrder(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 1, fill(r.main, 0xA1))
		r.stock.Write(p, 2, fill(r.main, 0xB2))
		r.sales.Write(p, 3, fill(r.main, 0xC3))
		g.CatchUp(p)
	})
	r.env.Run(0)
	bs, _ := r.backup.Volume("sales")
	bk, _ := r.backup.Volume("stock")
	if bs.Peek(1)[0] != 0xA1 || bk.Peek(2)[0] != 0xB2 || bs.Peek(3)[0] != 0xC3 {
		t.Fatal("backup content wrong")
	}
	if g.OrderBreaks() != 0 {
		t.Fatalf("%d installs out of per-volume ack order", g.OrderBreaks())
	}
	if g.AppliedRecords() != 3 || g.Backlog() != 0 {
		t.Fatalf("applied=%d backlog=%d", g.AppliedRecords(), g.Backlog())
	}
	g.Stop()
}

// TestInstallRunningFacts pins what install keeps of the records it applies:
// an order break is a GlobalSeq not above the last one installed for the
// same source volume, and the two maxima move independently.
func TestInstallRunningFacts(t *testing.T) {
	r := newAllocRig(3)
	rec := func(vol storage.VolumeID, globalSeq, epoch int64) storage.Record {
		return storage.Record{Volume: vol, Block: 0, Data: []byte{1}, GlobalSeq: globalSeq, Epoch: epoch}
	}

	a := r.vols(0)[0]
	g := r.create(t, "same-volume", 0)
	g.install(rec(a, 5, 1))
	g.install(rec(a, 3, 1))
	if g.OrderBreaks() != 1 {
		t.Fatalf("a lower GlobalSeq after a higher one on one volume: %d breaks, want 1", g.OrderBreaks())
	}
	g.install(rec(a, 3, 1))
	if g.OrderBreaks() != 2 {
		t.Fatalf("a repeated GlobalSeq on one volume: %d breaks, want 2", g.OrderBreaks())
	}

	a, b := r.vols(1)[0], r.vols(1)[1]
	g = r.create(t, "two-volumes", 1)
	g.install(rec(a, 5, 1))
	g.install(rec(b, 3, 1))
	g.install(rec(a, 6, 1))
	g.install(rec(b, 4, 1))
	if g.OrderBreaks() != 0 {
		t.Fatalf("ascending per volume, interleaved across two: %d breaks, want 0", g.OrderBreaks())
	}

	a, b = r.vols(2)[0], r.vols(2)[1]
	g = r.create(t, "maxima", 2)
	if seq, epoch := g.AppliedHighWater(); seq != 0 || epoch != 0 {
		t.Fatalf("high water before any install = (%d, %d), want (0, 0)", seq, epoch)
	}
	g.install(rec(a, 7, 1))
	g.install(rec(b, 2, 3))
	if seq, epoch := g.AppliedHighWater(); seq != 7 || epoch != 3 {
		t.Fatalf("high water = (%d, %d), want GlobalSeq 7 and Epoch 3 from different records", seq, epoch)
	}
}

func TestADCWriteAckDoesNotWaitForLink(t *testing.T) {
	// The paper's core slowdown claim: with ADC the host ack is local.
	r := newRig(t, netlink.Config{Propagation: 500 * time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	var ackAt time.Duration
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 0, fill(r.main, 1))
		ackAt = p.Now()
	})
	r.env.Run(0)
	if ackAt > 10*time.Millisecond {
		t.Fatalf("ADC write acked at %v, should not include the 500ms link", ackAt)
	}
	g.Stop()
}

func TestSDCWritePaysRoundTrip(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: 50 * time.Millisecond})
	tv, _ := r.backup.Volume("sales")
	sv := NewSyncVolume(r.sales, tv, r.links)
	var local, sdc time.Duration
	r.env.Process("io", func(p *sim.Proc) {
		// A plain write of the same volume first: what the mirror adds is
		// the SDC write's time beyond it.
		t0 := p.Now()
		if _, err := r.sales.WriteOwned(p, 1, fill(r.main, 6)); err != nil {
			t.Error(err)
		}
		local, t0 = p.Now()-t0, p.Now()
		if _, err := sv.WriteOwned(p, 0, fill(r.main, 7)); err != nil {
			t.Error(err)
		}
		sdc = p.Now() - t0
	})
	r.env.Run(0)
	if sdc-local < 100*time.Millisecond {
		t.Fatalf("SDC write took %v, a local write %v: the mirror must add the full RTT (100ms)", sdc, local)
	}
	if tv.Peek(0)[0] != 7 || tv.Writes() != 1 {
		t.Fatalf("remote twin holds %v after %d writes, want the one mirrored block", tv.Peek(0), tv.Writes())
	}
}

// An SDC write stores the host's one slice at both sites, and an overwrite at
// either site installs a fresh slice there, leaving the other site's block as
// it was mirrored.
func TestSDCSitesShareOneSliceAndOverwriteApart(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	tv, _ := r.backup.Volume("sales")
	sv := NewSyncVolume(r.sales, tv, r.links)
	r.env.Process("io", func(p *sim.Proc) {
		for blk, b := range []byte{7, 8} {
			owned := fill(r.main, b)
			if _, err := sv.WriteOwned(p, int64(blk), owned); err != nil {
				t.Fatal(err)
			}
			if &r.sales.Peek(int64(blk))[0] != &owned[0] || &tv.Peek(int64(blk))[0] != &owned[0] {
				t.Fatal("WriteOwned must hand the caller's slice to both sites")
			}
		}
		if _, err := r.sales.Write(p, 0, fill(r.main, 1)); err != nil { // the source alone moves on
			t.Fatal(err)
		}
		if err := tv.Apply(p, 1, fill(r.backup, 2)); err != nil { // the target alone moves on
			t.Fatal(err)
		}
		if !bytes.Equal(tv.Peek(0), fill(r.main, 7)) || !bytes.Equal(r.sales.Peek(1), fill(r.main, 8)) {
			t.Fatal("an overwrite at one site changed the block the other site holds")
		}
	})
	r.env.Run(0)
}

func TestSyncVolumeReadIsLocal(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Hour}) // reads must not touch this
	tv, _ := r.backup.Volume("sales")
	sv := NewSyncVolume(r.sales, tv, r.links)
	var got []byte
	var scanned [][]byte
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 0, fill(r.main, 3))
		got, _ = sv.Read(p, 0)
		scanned, _ = sv.ReadRange(p, 0, 2)
	})
	end := r.env.Run(0)
	if got[0] != 3 {
		t.Fatal("read wrong data")
	}
	if len(scanned) != 2 || &scanned[0][0] != &got[0] || scanned[1] != nil {
		t.Fatal("a range read must borrow the local volume's blocks, nil where unwritten")
	}
	if end > time.Second {
		t.Fatalf("local read crossed the link (took %v)", end)
	}
}

// A range over never-written blocks reads nil as a whole through a SyncVolume,
// and is charged as a written range of its width: the same simulated time and
// read ops on the local array.
func TestSyncVolumeUnwrittenRangeIsNil(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Hour})
	tv, _ := r.backup.Volume("sales")
	sv := NewSyncVolume(r.sales, tv, r.links)
	type cost struct {
		took time.Duration
		ops  int64
	}
	var written, unwritten cost
	var got [][]byte
	r.env.Process("io", func(p *sim.Proc) {
		measure := func(start int64) ([][]byte, cost) {
			ops, t0 := r.main.ReadOps(), p.Now()
			blks, err := sv.ReadRange(p, start, 4)
			if err != nil {
				t.Error(err)
			}
			return blks, cost{p.Now() - t0, r.main.ReadOps() - ops}
		}
		r.sales.Poke(0, fill(r.main, 3))
		_, written = measure(0)
		got, unwritten = measure(100)
	})
	r.env.Run(0)
	if got != nil || written.ops != 4 || unwritten != written {
		t.Fatalf("unwritten range: nil=%v, cost %+v; written range cost %+v (want nil, the same, 4 ops)", got == nil, unwritten, written)
	}
}

func TestInitialCopyTransfersExistingData(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	r.env.Process("preload", func(p *sim.Proc) {
		r.sales.Write(p, 5, fill(r.main, 0x55))
		r.stock.Write(p, 6, fill(r.main, 0x66))
	})
	r.env.Run(0)
	g := r.newCG(t, Config{})
	r.env.Process("init", func(p *sim.Proc) {
		if err := g.InitialCopy(p, r.main); err != nil {
			t.Error(err)
		}
	})
	r.env.Run(0)
	bs, _ := r.backup.Volume("sales")
	bk, _ := r.backup.Volume("stock")
	if bs.Peek(5)[0] != 0x55 || bk.Peek(6)[0] != 0x66 {
		t.Fatal("initial copy incomplete")
	}
	// Note: the preload happened before the CG existed, so those writes are
	// not in the journal; only the bulk copy moved them.
	if g.Journal().Pending() != 0 {
		t.Fatal("unexpected journal records")
	}
}

func TestRPOGrowsWhilePartitionedAndRecovers(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	var rpoDuring, rpoAfter time.Duration
	r.env.Process("io", func(p *sim.Proc) {
		r.links.Partition()
		r.sales.Write(p, 0, fill(r.main, 1))
		p.Sleep(200 * time.Millisecond)
		rpoDuring = g.RPO(p.Now())
		r.links.Heal()
		g.CatchUp(p)
		rpoAfter = g.RPO(p.Now())
	})
	r.env.Run(0)
	if rpoDuring < 190*time.Millisecond {
		t.Fatalf("RPO during partition = %v, want >= ~200ms", rpoDuring)
	}
	if rpoAfter != 0 {
		t.Fatalf("RPO after catch-up = %v, want 0", rpoAfter)
	}
	g.Stop()
}

func TestBacklogCountsPendingAndInflight(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: 100 * time.Millisecond})
	g := r.newCG(t, Config{BatchMax: 1})
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 5; i++ {
			r.sales.Write(p, i, fill(r.main, byte(i)))
		}
		p.Sleep(time.Millisecond)
		if got := g.Backlog(); got != 5 {
			t.Errorf("backlog right after writes = %d, want 5", got)
		}
		g.CatchUp(p)
		if got := g.Backlog(); got != 0 {
			t.Errorf("backlog after catch-up = %d", got)
		}
	})
	r.env.Run(0)
	g.Stop()
}

func TestStopHaltsDrain(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 0, fill(r.main, 1))
		g.CatchUp(p)
		g.Stop()
		// Writes after stop stay in the journal.
		r.sales.Write(p, 1, fill(r.main, 2))
		p.Sleep(time.Second)
	})
	r.env.Run(0)
	bs, _ := r.backup.Volume("sales")
	if bs.Peek(0)[0] != 1 {
		t.Fatal("pre-stop write not applied")
	}
	if bs.Peek(1) != nil {
		t.Fatal("post-stop write leaked to backup")
	}
	if g.Journal().Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Journal().Pending())
	}
}

func TestFailoverMakesTargetsWritable(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	for _, id := range []storage.VolumeID{"sales", "stock"} {
		tv, _ := r.backup.Volume(id)
		tv.SetReadOnly(true)
	}
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 0, fill(r.main, 1))
		g.CatchUp(p)
	})
	r.env.Run(0)
	vols, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if len(vols) != 2 {
		t.Fatalf("failover returned %d volumes", len(vols))
	}
	if !g.Stopped() || !g.FailedOver() {
		t.Fatal("failover state wrong")
	}
	r.env.Process("write-at-backup", func(p *sim.Proc) {
		if _, err := vols[0].Write(p, 10, fill(r.backup, 9)); err != nil {
			t.Errorf("backup volume still read-only: %v", err)
		}
	})
	r.env.Run(0)
}

func TestPerVolumeGroupsDivergeWithoutCG(t *testing.T) {
	// Two single-volume journals share one link; after a mid-stream stop the
	// two targets can be at different global points. This is the mechanism
	// behind E6, tested here at the replication layer.
	env := sim.NewEnv(3)
	main := storage.NewArray(env, "main", storage.Config{})
	backup := storage.NewArray(env, "backup", storage.Config{})
	for _, a := range []*storage.Array{main, backup} {
		a.CreateVolume("sales", 4096)
		a.CreateVolume("stock", 4096)
	}
	links := netlink.NewPair(env, netlink.Config{Propagation: 5 * time.Millisecond, BandwidthBps: 2e6})
	js, _ := main.CreateConsistencyGroup("j-sales", []storage.VolumeID{"sales"}, 1)
	jk, _ := main.CreateConsistencyGroup("j-stock", []storage.VolumeID{"stock"}, 1)
	path := []fabric.Path{links.Forward}
	gs, _ := NewGroup(env, "g-sales", js, backup, path, Config{BatchMax: 8})
	gk, _ := NewGroup(env, "g-stock", jk, backup, path, Config{BatchMax: 8})
	gs.Start()
	gk.Start()
	sales, _ := main.Volume("sales")
	stock, _ := main.Volume("stock")
	env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 400; i++ {
			b := make([]byte, main.Config().BlockSize)
			b[0] = byte(i)
			sales.Write(p, i%512, b)
			stock.Write(p, i%512, b)
		}
	})
	env.Run(40 * time.Millisecond) // stop mid-replication: the disaster
	gs.Stop()
	gk.Stop()
	a, b := gs.AppliedRecords(), gk.AppliedRecords()
	if a == 0 && b == 0 {
		t.Skip("nothing applied before cut; scenario too short")
	}
	// With independent drains over a shared link the applied counts are
	// whatever the interleaving produced; the replication layer promises
	// only per-journal order, NOT cross-journal alignment. We assert the
	// per-journal order here: no install out of order, and each target holds
	// exactly the first AppliedRecords writes (write i stamps block i with i).
	for _, g := range []*Group{gs, gk} {
		if g.OrderBreaks() != 0 {
			t.Fatalf("%s: %d installs out of ack order", g.Name(), g.OrderBreaks())
		}
		tv, _ := backup.Volume(g.Members()[0])
		n := g.AppliedRecords()
		for i := int64(0); i < n; i++ {
			if blk := tv.Peek(i); blk == nil || blk[0] != byte(i) {
				t.Fatalf("%s: block %d is not write %d of %d applied", g.Name(), i, i, n)
			}
		}
		if tv.Peek(n) != nil {
			t.Fatalf("%s: block %d holds a write past the %d applied", g.Name(), n, n)
		}
	}
}

func TestBatchSizeAffectsTransferCount(t *testing.T) {
	run := func(batch int) int64 {
		env := sim.NewEnv(1)
		main := storage.NewArray(env, "m", storage.Config{})
		backup := storage.NewArray(env, "b", storage.Config{})
		main.CreateVolume("v", 1024)
		backup.CreateVolume("v", 1024)
		link := netlink.New(env, netlink.Config{Propagation: 10 * time.Millisecond})
		j, _ := main.CreateConsistencyGroup("j", []storage.VolumeID{"v"}, 1)
		g, _ := NewGroup(env, "g", j, backup, []fabric.Path{link}, Config{BatchMax: batch})
		v, _ := main.Volume("v")
		env.Process("io", func(p *sim.Proc) {
			for i := int64(0); i < 100; i++ {
				v.Write(p, i, make([]byte, main.Config().BlockSize))
			}
			g.Start()
			g.CatchUp(p)
			g.Stop()
		})
		env.Run(0)
		return link.Transfers()
	}
	small, large := run(1), run(100)
	if small != 100 {
		t.Fatalf("batch=1 transfers = %d, want 100", small)
	}
	if large != 1 {
		t.Fatalf("batch=100 transfers = %d, want 1", large)
	}
}

func TestAppliedPayloadIntegrity(t *testing.T) {
	r := newRig(t, netlink.Config{})
	g := r.newCG(t, Config{})
	g.Start()
	want := fill(r.main, 0xEE)
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 9, want)
		g.CatchUp(p)
	})
	r.env.Run(0)
	bs, _ := r.backup.Volume("sales")
	if !bytes.Equal(bs.Peek(9), want) {
		t.Fatal("payload corrupted in flight")
	}
	g.Stop()
}
