package experiments

import (
	"fmt"
	"time"

	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// E10Failback extends the paper's DR story past the demo: after a disaster
// and failover, the main site returns and is resynchronized from the
// backup using the delta bitmap (changed-at-backup plus stranded-at-main
// blocks). The sweep grows the outage length — more production at the
// backup means a bigger delta — and compares against the full-copy
// baseline a bitmap-less resync would need.
//
// Expected shape: delta blocks grow with outage length but stay well under
// the full copy; resync time scales with the delta, not the dataset.
func E10Failback(seed int64, outageOrders []int) (*Table, error) {
	t := NewTable("E10: failback delta resync after outage (DR extension, §I context)",
		"outage writes", "delta blocks", "full-copy blocks", "resync time", "savings", "reverse ok")
	for i, n := range outageOrders {
		r, err := newRig(rigParams{
			seed: seed + int64(i),
			mode: ModeADC,
			link: netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 1e8},
		})
		if err != nil {
			return nil, fmt.Errorf("E10 outage=%d: %w", n, err)
		}
		// Steady state before the disaster: order history plus a bulk
		// dataset (the databases' cold data), all fully replicated. This
		// is what a bitmap-less full resync would recopy.
		if _, err := r.runOrders(400); err != nil {
			return nil, err
		}
		if err := runProc(r.env, "bulk-load", 0, func(p *sim.Proc) error {
			sv, _ := r.main.Volume("sales")
			kv, _ := r.main.Volume("stock")
			return writePair(p, sv, kv, 500, 1500, 1500)
		}); err != nil {
			return nil, fmt.Errorf("E10 outage=%d: bulk load: %w", n, err)
		}
		r.env.Process("catchup", func(p *sim.Proc) { r.groups[0].CatchUp(p) })
		r.env.Run(0)
		// Disaster: partition, a little stranded work, failover.
		r.links.Partition()
		r.env.Process("stranded", func(p *sim.Proc) { r.shop.Run(p, 3) })
		r.env.Run(r.env.Now() + 50*time.Millisecond)
		if _, err := r.groups[0].Failover(); err != nil {
			return nil, err
		}
		r.env.Run(0)

		// Production continues at the backup site during the outage. The
		// backup DBs are recovered copies; for the resync measurement we
		// write blocks directly (the delta bitmap is block-level).
		bs, _ := r.backup.Volume("sales")
		bk, _ := r.backup.Volume("stock")
		// Production rewrites a hot working set (databases hammer their WAL
		// region and hot pages), so the delta saturates at the working-set
		// size rather than growing without bound.
		if err := runProc(r.env, "outage-production", 0, func(p *sim.Proc) error {
			return writePair(p, bs, bk, 1200, 100, n)
		}); err != nil {
			return nil, fmt.Errorf("E10 outage=%d: outage production: %w", n, err)
		}

		// The main site returns.
		r.links.Heal()
		err = runProc(r.env, "failback", 0, func(p *sim.Proc) error {
			start := p.Now()
			reverse, stats, err := r.groups[0].Failback(p, r.main, r.links.Reverse, replication.Config{})
			if err != nil {
				return err
			}
			resync := p.Now() - start
			savings := 0.0 // full copy over delta
			if stats.DeltaBlocks > 0 {
				savings = float64(stats.TotalBlocks) / float64(stats.DeltaBlocks)
			}
			// Verify the reverse direction carries new production.
			buf := make([]byte, bs.BlockSize())
			buf[0] = 0x5A
			if _, err := bs.Write(p, 1999, buf); err != nil {
				return fmt.Errorf("reverse probe: %w", err)
			}
			reverse.CatchUp(p)
			sv, _ := r.main.Volume("sales")
			got := sv.Peek(1999) // nil if the write never arrived
			t.AddRow(n, stats.DeltaBlocks, stats.TotalBlocks, resync, fmt.Sprintf("%.1fx", savings), got != nil && got[0] == 0x5A)
			reverse.Stop()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E10 outage=%d: %w", n, err)
		}
	}
	t.AddNote("shape: delta grows with outage, stays well under full copy; resync time tracks the delta")
	return t, nil
}

// writePair writes n zero blocks to a and then b in turn, the w-th at block
// base+w%span, and returns the first write error.
func writePair(p *sim.Proc, a, b *storage.Volume, base, span int64, n int) error {
	buf := make([]byte, a.BlockSize())
	for w := 0; w < n; w++ {
		for _, v := range []*storage.Volume{a, b} {
			if _, err := v.Write(p, base+int64(w)%span, buf); err != nil {
				return err
			}
		}
	}
	return nil
}
