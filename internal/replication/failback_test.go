package replication

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// failoverRig drives a rig to the failed-over state with some divergence:
// writes that never reached the backup, then new production at the backup.
func failoverRig(t *testing.T) (*rig, *Group) {
	t.Helper()
	r := newRig(t, netlink.Config{Propagation: 2 * time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		r.sales.Write(p, 0, fill(r.main, 0x01))
		r.stock.Write(p, 0, fill(r.main, 0x02))
		g.CatchUp(p)
		// Partition, then write more: these strand in the journal.
		r.links.Partition()
		r.sales.Write(p, 1, fill(r.main, 0x03))
		p.Sleep(10 * time.Millisecond)
	})
	r.env.Run(0)
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	// The main site "returns": the inter-site links heal. (The stranded
	// journal writes stay lost — that is the point.)
	r.links.Heal()
	return r, g
}

func TestFailbackRequiresFailover(t *testing.T) {
	r := newRig(t, netlink.Config{})
	g := r.newCG(t, Config{})
	r.env.Process("t", func(p *sim.Proc) {
		if _, _, err := g.Failback(p, r.main, r.links.Reverse); !errors.Is(err, ErrNotFailedOver) {
			t.Errorf("err = %v", err)
		}
	})
	r.env.Run(0)
}

// A group fails back once: a second Failback is refused with ErrFailedBack
// before it touches anything, so the reverse group the first one started
// keeps its volumes and the source array keeps its journals.
func TestSecondFailbackIsRefused(t *testing.T) {
	r, g := failoverRig(t)
	r.env.Process("t", func(p *sim.Proc) {
		reverse, _, err := g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Errorf("failback: %v", err)
			return
		}
		before, start := r.main.Residue(""), p.Now()
		if _, _, err := g.Failback(p, r.main, r.links.Reverse); !errors.Is(err, ErrFailedBack) {
			t.Errorf("second failback: %v, want ErrFailedBack", err)
		}
		if after := r.main.Residue(""); p.Now() != start || !slices.Equal(after, before) || reverse.Stopped() {
			t.Errorf("the refused failback acted: %v passed, array objects %v -> %v, reverse stopped %v",
				p.Now()-start, before, after, reverse.Stopped())
		}
		reverse.Stop()
	})
	r.env.Run(0)
}

func TestFailbackResyncsDelta(t *testing.T) {
	r, g := failoverRig(t)
	// New production at the backup site after failover.
	bs, _ := r.backup.Volume("sales")
	bk, _ := r.backup.Volume("stock")
	r.env.Process("prod", func(p *sim.Proc) {
		bs.Write(p, 2, fill(r.backup, 0x10))
		bk.Write(p, 3, fill(r.backup, 0x11))
	})
	r.env.Run(0)

	var stats FailbackStats
	var reverse *Group
	r.env.Process("failback", func(p *sim.Proc) {
		var err error
		reverse, stats, err = g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Error(err)
			return
		}
		reverse.CatchUp(p)
	})
	r.env.Run(0)
	if reverse == nil {
		t.Fatal("no reverse group")
	}
	// The delta: backup writes on blocks 2 (sales) and 3 (stock), plus the
	// stranded sales block 1.
	if stats.DeltaBlocks != 3 {
		t.Fatalf("delta = %d blocks, want 3", stats.DeltaBlocks)
	}
	if stats.TotalBlocks < stats.DeltaBlocks {
		t.Fatalf("total %d < delta %d", stats.TotalBlocks, stats.DeltaBlocks)
	}
	// Main now mirrors the backup's truth.
	if r.sales.Peek(2)[0] != 0x10 || r.stock.Peek(3)[0] != 0x11 {
		t.Fatal("backup production not resynced to main")
	}
	// The stranded write (sales block 1) was rolled back to the backup's
	// view: the backup never had it, so main's copy is overwritten with
	// the backup content (zeroes were never written there — the block was
	// only in the stranded journal and on main; the resync copies the
	// backup's version).
	if r.sales.Peek(1)[0] == 0x03 {
		t.Fatal("stranded divergent write survived failback")
	}
	reverse.Stop()
}

// A batch the lane still has on the wire when Failback starts is unapplied
// too: the partition held its transfer, the heal lets it run on, and only when
// it returns does the lane notice the stop and book the batch as lost. Failback
// must not wait for that to count the batch's blocks as diverged.
func TestFailbackResyncsTheBatchStillOnTheWire(t *testing.T) {
	r, g := failoverRig(t) // healed just now: the abandoned transfer has not returned
	if n := len(g.UnappliedRecords()); n != 1 {
		t.Fatalf("unapplied records with the stranded batch in flight = %d, want 1", n)
	}
	var stats FailbackStats
	r.env.Process("failback", func(p *sim.Proc) {
		reverse, st, err := g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Error(err)
			return
		}
		stats = st
		reverse.CatchUp(p)
		reverse.Stop()
	})
	r.env.Run(0)
	if stats.DeltaBlocks != 1 {
		t.Fatalf("delta = %d blocks, want the in-flight batch's 1", stats.DeltaBlocks)
	}
	if got := r.sales.Peek(1); got == nil || got[0] == 0x03 {
		t.Fatal("old source kept the write that never reached the backup")
	}
	if n := len(g.UnappliedRecords()); n != 1 {
		t.Fatalf("unapplied records once the transfer was abandoned = %d, want 1 (no double count)", n)
	}
}

func TestFailbackReverseReplicationFlows(t *testing.T) {
	r, g := failoverRig(t)
	bs, _ := r.backup.Volume("sales")
	var reverse *Group
	r.env.Process("failback", func(p *sim.Proc) {
		var err error
		reverse, _, err = g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Error(err)
			return
		}
		// Production continues at the backup; reverse ADC carries it over.
		bs.Write(p, 7, fill(r.backup, 0x77))
		reverse.CatchUp(p)
	})
	r.env.Run(0)
	if r.sales.Peek(7)[0] != 0x77 {
		t.Fatal("post-failback write did not replicate in reverse")
	}
	// Old source is now a protected target.
	r.env.Process("guard", func(p *sim.Proc) {
		if _, err := r.sales.Write(p, 8, fill(r.main, 1)); !errors.Is(err, storage.ErrReadOnly) {
			t.Errorf("old source writable during reverse replication: %v", err)
		}
	})
	r.env.Run(0)
	reverse.Stop()
}

func TestFailbackCrossVolumeOrderPreserved(t *testing.T) {
	// The reverse direction is also a consistency group: interleaved
	// writes at the backup must apply at main in ack order.
	r, g := failoverRig(t)
	bs, _ := r.backup.Volume("sales")
	bk, _ := r.backup.Volume("stock")
	var reverse *Group
	r.env.Process("failback", func(p *sim.Proc) {
		var err error
		reverse, _, err = g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Error(err)
			return
		}
		bs.Write(p, 10, fill(r.backup, 1))
		bk.Write(p, 10, fill(r.backup, 2))
		bs.Write(p, 11, fill(r.backup, 3))
		reverse.CatchUp(p)
	})
	r.env.Run(0)
	var journaled int64
	for _, j := range reverse.Journal().Shards() {
		journaled += j.Appended()
	}
	if n := reverse.AppliedRecords(); n < 3 || n != journaled {
		t.Fatalf("reverse applied %d of %d journaled records", n, journaled)
	}
	if reverse.OrderBreaks() != 0 {
		t.Fatalf("reverse apply order broken: %d installs out of ack order", reverse.OrderBreaks())
	}
	reverse.Stop()
}

func TestFailbackDeltaSmallerThanFull(t *testing.T) {
	// Write a lot before failover (fully replicated), little after: the
	// delta resync must move far less than a full copy would.
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			r.sales.Write(p, i, fill(r.main, byte(i)))
		}
		g.CatchUp(p)
	})
	r.env.Run(0)
	g.Failover()
	bs, _ := r.backup.Volume("sales")
	r.env.Process("prod", func(p *sim.Proc) {
		bs.Write(p, 5, fill(r.backup, 0xAA)) // one changed block
	})
	r.env.Run(0)
	var stats FailbackStats
	r.env.Process("failback", func(p *sim.Proc) {
		var err error
		var rev *Group
		rev, stats, err = g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Error(err)
			return
		}
		rev.Stop()
	})
	r.env.Run(0)
	if stats.DeltaBlocks != 1 {
		t.Fatalf("delta = %d, want 1", stats.DeltaBlocks)
	}
	if stats.TotalBlocks < 100 {
		t.Fatalf("total = %d, want >= 100", stats.TotalBlocks)
	}
}

// Reads borrow and the replication-target writes adopt, so the initial copy
// and the failback resync move no bytes on the host: after either, both
// sites hold one slice per copied block. That is only sound if an overwrite
// at either site installs a fresh slice and the other keeps its bytes.
func TestBulkCopyAndFailbackAdoptTheBorrowedBlock(t *testing.T) {
	aliased := func(a, b []byte) bool { return a != nil && b != nil && &a[0] == &b[0] }
	// eitherSideOverwrites overwrites block lo at x and block hi at y, which
	// alias each other's, and checks the other site kept what it had.
	eitherSideOverwrites := func(t *testing.T, x, y *storage.Volume, lo, hi int64) {
		t.Helper()
		if !aliased(x.Peek(lo), y.Peek(lo)) || !aliased(x.Peek(hi), y.Peek(hi)) {
			t.Fatalf("blocks %d and %d were copied, not adopted: the hand-over rule is not exercised", lo, hi)
		}
		wantLo, wantHi := bytes.Clone(y.Peek(lo)), bytes.Clone(x.Peek(hi))
		x.Poke(lo, bytes.Repeat([]byte{0xE1}, x.BlockSize()))
		y.Poke(hi, bytes.Repeat([]byte{0xE2}, y.BlockSize()))
		if !bytes.Equal(y.Peek(lo), wantLo) || !bytes.Equal(x.Peek(hi), wantHi) {
			t.Fatal("an overwrite at one site changed the block the other site adopted")
		}
	}

	t.Run("initial copy", func(t *testing.T) {
		r := newRig(t, netlink.Config{Propagation: time.Millisecond})
		r.sales.Poke(0, fill(r.main, 0x01)) // written before the pair exists
		r.sales.Poke(1, fill(r.main, 0x02))
		g := r.newCG(t, Config{})
		r.env.Process("copy", func(p *sim.Proc) {
			if err := g.InitialCopy(p, r.main); err != nil {
				t.Error(err)
			}
		})
		r.env.Run(0)
		bs, _ := r.backup.Volume("sales")
		eitherSideOverwrites(t, r.sales, bs, 0, 1)
	})

	// A block in the list that the source does not hold (never written, or
	// erased by a restore after it was tracked) is copied as what it reads as.
	t.Run("unwritten block in a resync list", func(t *testing.T) {
		r := newRig(t, netlink.Config{Propagation: time.Millisecond})
		r.sales.Poke(0, fill(r.main, 0x01))
		g := r.newCG(t, Config{})
		r.env.Process("copy", func(p *sim.Proc) {
			if err := g.bulkCopy(p, r.sales, []int64{0, 5}); err != nil {
				t.Error(err)
			}
		})
		r.env.Run(0)
		bs, _ := r.backup.Volume("sales")
		if got := bs.Peek(5); !bytes.Equal(got, make([]byte, r.main.Config().BlockSize)) || r.sales.Peek(5) != nil {
			t.Fatalf("unwritten block: target holds %d bytes, source written=%v; want a zero block and unwritten",
				len(got), r.sales.Peek(5) != nil)
		}
	})

	t.Run("failback", func(t *testing.T) {
		r, g := failoverRig(t) // main's sales block 1 is stranded: the backup never wrote it
		bs, _ := r.backup.Volume("sales")
		var stats FailbackStats
		r.env.Process("prod", func(p *sim.Proc) {
			bs.Write(p, 2, fill(r.backup, 0x10))
			bs.Write(p, 3, fill(r.backup, 0x11))
		})
		r.env.Run(0)
		r.env.Process("failback", func(p *sim.Proc) {
			reverse, st, err := g.Failback(p, r.main, r.links.Reverse)
			if err != nil {
				t.Error(err)
				return
			}
			stats = st
			reverse.Stop()
		})
		r.env.Run(0)
		// A never-written delta block still ships, and lands, as a block of
		// zeroes — at the source only.
		if want := int64(3 * r.main.Config().BlockSize); stats.DeltaBlocks != 3 || stats.Bytes != want {
			t.Fatalf("delta = %d blocks, %d bytes; want 3 blocks, %d bytes", stats.DeltaBlocks, stats.Bytes, want)
		}
		if got := r.sales.Peek(1); !bytes.Equal(got, make([]byte, r.main.Config().BlockSize)) || bs.Peek(1) != nil {
			t.Fatalf("stranded block: source holds %d bytes, backup written=%v; want a zero block and unwritten",
				len(got), bs.Peek(1) != nil)
		}
		eitherSideOverwrites(t, bs, r.sales, 2, 3)
	})
}

// TestFailbackAtAnyLaneCount fails a group back at one, two and four lanes
// through the one path: records stranded in more than one shard and
// production at the backup both resync, the reverse group runs as many
// lanes as the old one, main reads as the backup does once it drains, and a
// later backup write reaches main.
func TestFailbackAtAnyLaneCount(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	// readsSame compares two stored blocks as they read: a nil block, and a
	// prefix past its end, read as zeroes.
	readsSame := func(a, b []byte, size int) bool {
		return bytes.Equal(append(bytes.Clone(a), make([]byte, size-len(a))...),
			append(bytes.Clone(b), make([]byte, size-len(b))...))
	}
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			r := newShardedRig(t, lanes, 8, link, Config{BatchMax: 8})
			g := r.g
			g.Start()
			r.env.Process("io", func(p *sim.Proc) {
				for i := 0; i < 24; i++ {
					r.seqWrite(p, t, i)
				}
				g.CatchUp(p)
				g.Stop() // the split: what is written from here on strands
				for i := 24; i < 40; i++ {
					r.seqWrite(p, t, i)
				}
			})
			r.env.Run(0)
			stranded := 0
			for _, j := range g.Journal().Shards() {
				if len(j.PendingRecords()) > 0 {
					stranded++
				}
			}
			if lanes > 1 && stranded < 2 {
				t.Fatalf("records stranded in %d shards, want more than one", stranded)
			}
			if _, err := g.Failover(); err != nil {
				t.Fatal(err)
			}
			bv := func(i int) *storage.Volume { v, _ := r.backup.Volume(r.vols[i]); return v }
			rev := netlink.NewPair(r.env, link).Reverse
			r.env.Process("failback", func(p *sim.Proc) {
				// Production at the backup: new blocks and an overwrite.
				bv(0).Write(p, 5, fill(r.backup, 0x50))
				bv(3).Write(p, 5, fill(r.backup, 0x53))
				bv(2).Write(p, 1, fill(r.backup, 0x21))
				reverse, stats, err := g.Failback(p, r.main, rev)
				if err != nil {
					t.Error(err)
					return
				}
				if reverse.Lanes() != lanes {
					t.Errorf("reverse group runs %d lanes, want %d", reverse.Lanes(), lanes)
				}
				if want := 16 + 3; stats.DeltaBlocks != want {
					t.Errorf("delta = %d blocks, want %d (16 stranded + 3 backup writes)", stats.DeltaBlocks, want)
				}
				bv(1).Write(p, 6, fill(r.backup, 0x61))
				reverse.CatchUp(p)
				reverse.Stop()
			})
			r.env.Run(0)
			if t.Failed() {
				return
			}
			size := r.main.Config().BlockSize
			for _, id := range r.vols {
				sv, _ := r.main.Volume(id)
				tv, _ := r.backup.Volume(id)
				for _, b := range slices.Concat(sv.WrittenBlocks(), tv.WrittenBlocks()) {
					if !readsSame(sv.Peek(b), tv.Peek(b), size) {
						t.Fatalf("volume %s block %d reads differently at main and backup", id, b)
					}
				}
			}
			if sv, _ := r.main.Volume(r.vols[1]); sv.Peek(6) == nil || sv.Peek(6)[0] != 0x61 {
				t.Fatal("a backup write after failback did not reach main")
			}
		})
	}
}
