package replication

import (
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// overflowRig builds a pair whose journal holds only a few records.
func overflowRig(t *testing.T) (*rig, *Group) {
	t.Helper()
	r := newRig(t, netlink.Config{Propagation: 2 * time.Millisecond})
	blockSize := r.main.Config().BlockSize
	return r, r.newSizedCG(t, 4*(blockSize+64+64), Config{}) // ~4 records
}

func TestJournalOverflowSuspendsPair(t *testing.T) {
	r, g := overflowRig(t)
	// No drain running: the journal fills and overflows.
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 20; i++ {
			if _, err := r.sales.Write(p, i, fill(r.main, byte(i))); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.env.Run(0)
	if !g.Journal().Overflowed() {
		t.Fatal("journal never overflowed")
	}
	if g.Journal().Overflows() != 1 {
		t.Fatalf("overflows = %d", g.Journal().Overflows())
	}
	// Writes after suspension are tracked, not journaled.
	pendingAtOverflow := g.Journal().Pending()
	r.env.Process("more", func(p *sim.Proc) {
		r.sales.Write(p, 50, fill(r.main, 0xAA))
	})
	r.env.Run(0)
	if g.Journal().Pending() != pendingAtOverflow {
		t.Fatal("suspended journal still accepting records")
	}
	if got := len(r.sales.ChangedBlocks()); got == 0 {
		t.Fatal("suspended writes not tracked")
	}
}

func TestResyncRecoversSuspendedPair(t *testing.T) {
	r, g := overflowRig(t)
	g.Start()
	// Partition so the drain stalls while writes overflow the journal.
	r.links.Partition()
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 20; i++ {
			r.sales.Write(p, i, fill(r.main, byte(i+1)))
		}
		p.Sleep(50 * time.Millisecond)
	})
	r.env.Run(0)
	if !g.Journal().Overflowed() {
		t.Fatal("pair not suspended")
	}
	r.links.Heal()
	var resyncErr error
	r.env.Process("resync", func(p *sim.Proc) {
		resyncErr = g.Resync(p, r.main)
	})
	r.env.Run(0)
	if resyncErr != nil {
		t.Fatal(resyncErr)
	}
	if g.Journal().Overflowed() {
		t.Fatal("pair still suspended after resync")
	}
	// Every written block arrived at the backup.
	bs, _ := r.backup.Volume("sales")
	for i := int64(0); i < 20; i++ {
		if bs.Peek(i)[0] != byte(i+1) {
			t.Fatalf("backup block %d = %x, want %x", i, bs.Peek(i)[0], byte(i+1))
		}
	}
	// Journaling works again: a new write replicates normally.
	r.env.Process("after", func(p *sim.Proc) {
		r.sales.Write(p, 99, fill(r.main, 0x77))
		g.CatchUp(p)
	})
	r.env.Run(0)
	if bs.Peek(99)[0] != 0x77 {
		t.Fatal("replication broken after resync")
	}
	g.Stop()
}

func TestResyncConvergesUnderConcurrentWrites(t *testing.T) {
	r, g := overflowRig(t)
	g.Start()
	r.links.Partition()
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			r.sales.Write(p, i, fill(r.main, 1))
		}
	})
	r.env.Run(0)
	if !g.Journal().Overflowed() {
		t.Fatal("not suspended")
	}
	r.links.Heal()
	// A writer keeps dirtying one block while the resync runs; the
	// pass-until-quiet loop must still converge once the writer stops.
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.sales.Write(p, 3, fill(r.main, byte(0x10+i)))
			p.Sleep(3 * time.Millisecond)
		}
	})
	var resyncErr error
	r.env.Process("resync", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		resyncErr = g.Resync(p, r.main)
	})
	r.env.Run(0)
	if resyncErr != nil {
		t.Fatal(resyncErr)
	}
	bs, _ := r.backup.Volume("sales")
	if bs.Peek(3)[0] != 0x14 {
		t.Fatalf("backup block 3 = %x, want final value 14", bs.Peek(3)[0])
	}
	g.Stop()
}

func TestUnlimitedJournalNeverOverflows(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{}) // CreateConsistencyGroup = unlimited journal
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 200; i++ {
			r.sales.Write(p, i%256, fill(r.main, 1))
		}
	})
	r.env.Run(0)
	if g.Journal().Overflowed() {
		t.Fatal("unlimited journal overflowed")
	}
	g.Stop()
}
