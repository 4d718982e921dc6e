package replication

import (
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// charges is what one run of chargeRun counts, in every unit a block is
// charged in.
type charges struct {
	overflowAfter                int   // writes issued when the journal overflowed
	pendingRecords, pendingBytes int   // the backlog at that point
	sentBytes, appliedBytes      int64 // forward link, after the resync and catch-up
	mainWritten, backupWritten   int64 // bytes_written on each array
	failbackBytes, reverseSent   int64 // failback's stats.Bytes and the reverse link
	sdcSent                      int64 // an SDC pair's forward link
	end                          time.Duration
}

// chargeRun drives the paths that charge a block by its size — a journal
// filling to overflow, its drain and resync, a failover, a failback, an SDC
// mirror — with every block written as data(array, fill).
func chargeRun(t *testing.T, data func(a *storage.Array, b byte) []byte) charges {
	t.Helper()
	var c charges
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	rec := r.main.Config().BlockSize + 64
	g := r.newSizedCG(t, 4*rec+rec/2, Config{}) // four records and half a fifth
	r.env.Process("adc", func(p *sim.Proc) {
		for i := int64(0); !g.Journal().Overflowed() && i < 64; i++ {
			if _, err := r.sales.Write(p, i, data(r.main, byte(i+1))); err != nil {
				t.Fatal(err)
			}
			c.overflowAfter++
		}
		shard := g.Journal().Shards()[0] // newSizedCG's one shard
		c.pendingRecords, c.pendingBytes = shard.Pending(), shard.PendingBytes()
		g.Start()
		if err := g.Resync(p, r.main); err != nil {
			t.Fatal(err)
		}
		r.stock.Write(p, 0, data(r.main, 0xEE))
		g.CatchUp(p)
		c.sentBytes, c.appliedBytes = r.links.Forward.SentBytes(), g.AppliedBytes()
	})
	r.env.Run(0)
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	bs, _ := r.backup.Volume("sales")
	r.env.Process("failback", func(p *sim.Proc) {
		for b := int64(100); b < 103; b++ { // production at the backup site
			if _, err := bs.Write(p, b, data(r.backup, byte(b))); err != nil {
				t.Fatal(err)
			}
		}
		reverse, stats, err := g.Failback(p, r.main, r.links.Reverse)
		if err != nil {
			t.Fatal(err)
		}
		reverse.CatchUp(p)
		reverse.Stop()
		c.failbackBytes, c.reverseSent = stats.Bytes, r.links.Reverse.SentBytes()
	})
	c.end = r.env.Run(0)
	c.mainWritten, c.backupWritten = r.main.BytesWritten(), r.backup.BytesWritten()

	sdc := newRig(t, netlink.Config{Propagation: time.Millisecond})
	tv, _ := sdc.backup.Volume("sales")
	sv := NewSyncVolume(sdc.sales, tv, sdc.links)
	sdc.env.Process("sdc", func(p *sim.Proc) {
		for b := int64(0); b < 3; b++ {
			if _, err := sv.WriteOwned(p, b, data(sdc.main, byte(b+1))); err != nil {
				t.Fatal(err)
			}
		}
		c.sdcSent = sdc.links.Forward.SentBytes()
	})
	c.end += sdc.env.Run(0)
	return c
}

// A stored block may be a prefix of the block — the database hands its WAL
// head over that way — and is charged as the whole block everywhere a block
// is counted: the journal's backlog bytes and so its overflow point, the link
// bytes of a drain, a resync, a failback and an SDC mirror, the bytes applied
// at the target, bytes_written on both arrays, failback's byte count, and the
// simulated time all of those take.
func TestPrefixBlocksAreChargedAsWholeBlocks(t *testing.T) {
	full := chargeRun(t, fill)
	prefix := chargeRun(t, func(a *storage.Array, b byte) []byte { return []byte{b, b, b} })
	if full.overflowAfter != 5 || full.pendingRecords != 4 || full.failbackBytes == 0 || full.sdcSent == 0 {
		t.Fatalf("the full-block run overflowed after %d writes with %d pending, failback moved %d bytes, SDC sent %d: the scenario does not exercise every charge",
			full.overflowAfter, full.pendingRecords, full.failbackBytes, full.sdcSent)
	}
	if prefix != full {
		t.Fatalf("3-byte prefix blocks were charged\n  %+v\nwhere whole blocks were charged\n  %+v", prefix, full)
	}
}
