package experiments

import (
	"fmt"
	"time"

	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
)

// FailbackResult is one row of experiment E10.
type FailbackResult struct {
	OutageOrders int // orders processed at the backup during the outage
	DeltaBlocks  int
	FullBlocks   int // what a full resync would copy
	ResyncTime   time.Duration
	SavingsX     float64 // full / delta
	ReverseOK    bool    // post-resync writes replicate in reverse
}

// E10Failback extends the paper's DR story past the demo: after a disaster
// and failover, the main site returns and is resynchronized from the
// backup using the delta bitmap (changed-at-backup plus stranded-at-main
// blocks). The sweep grows the outage length — more production at the
// backup means a bigger delta — and compares against the full-copy
// baseline a bitmap-less resync would need.
//
// Expected shape: delta blocks grow with outage length but stay well under
// the full copy; resync time scales with the delta, not the dataset.
func E10Failback(seed int64, outageOrders []int) ([]FailbackResult, error) {
	var out []FailbackResult
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
		r.env.Process("bulk-load", func(p *sim.Proc) {
			sv, _ := r.main.Volume("sales")
			kv, _ := r.main.Volume("stock")
			buf := make([]byte, r.main.Config().BlockSize)
			for b := int64(500); b < 2000; b++ {
				sv.Write(p, b, buf)
				kv.Write(p, b, buf)
			}
		})
		r.env.Run(0)
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
		r.env.Process("outage-production", func(p *sim.Proc) {
			buf := make([]byte, r.backup.Config().BlockSize)
			for w := 0; w < n; w++ {
				bs.Write(p, int64(1200+w%100), buf)
				bk.Write(p, int64(1200+w%100), buf)
			}
		})
		r.env.Run(0)

		// The main site returns.
		r.links.Heal()
		var res FailbackResult
		res.OutageOrders = n
		err = runProc(r.env, "failback", 0, func(p *sim.Proc) error {
			start := p.Now()
			reverse, stats, err := r.groups[0].Failback(p, r.main, r.links.Reverse, replication.Config{})
			if err != nil {
				return err
			}
			res.ResyncTime = p.Now() - start
			res.DeltaBlocks = stats.DeltaBlocks
			res.FullBlocks = stats.TotalBlocks
			if stats.DeltaBlocks > 0 {
				res.SavingsX = float64(stats.TotalBlocks) / float64(stats.DeltaBlocks)
			}
			// Verify the reverse direction carries new production.
			buf := make([]byte, r.backup.Config().BlockSize)
			buf[0] = 0x5A
			bs.Write(p, 1999, buf)
			reverse.CatchUp(p)
			sv, _ := r.main.Volume("sales")
			got := sv.Peek(1999) // nil if the write never arrived
			res.ReverseOK = got != nil && got[0] == 0x5A
			reverse.Stop()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E10 outage=%d: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// E10Table renders E10 results.
func E10Table(results []FailbackResult) *Table {
	t := NewTable("E10: failback delta resync after outage (DR extension, §I context)",
		"outage writes", "delta blocks", "full-copy blocks", "resync time", "savings", "reverse ok")
	for _, r := range results {
		t.AddRow(r.OutageOrders, r.DeltaBlocks, r.FullBlocks, r.ResyncTime, fmt.Sprintf("%.1fx", r.SavingsX), r.ReverseOK)
	}
	t.AddNote("shape: delta grows with outage, stays well under full copy; resync time tracks the delta")
	return t
}
