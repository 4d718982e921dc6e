package experiments

import (
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/db"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// E8Recovery measures the downtime half of the paper's claim: after a
// disaster, how long does backup-site recovery take and does it yield a
// usable system? The sweep grows the amount of committed-but-uncheckpointed
// work (the WAL replay recovery must do). It runs cgOrders in the
// consistent configuration and noCGOrders without consistency groups, where
// recovery completes per database but the business process is broken when
// the image collapsed. The i-th run of each sweep uses seed+i.
//
// Expected shape: recovery time grows with WAL backlog; business intact is
// always true for ADC+CG and frequently false for ADC-noCG.
func E8Recovery(seed int64, cgOrders, noCGOrders []int) (*Table, error) {
	t := NewTable("E8: backup-site recovery (downtime) vs replay volume (paper §I claim)",
		"mode", "orders", "recovery time", "log read", "log blocks live/read", "page read", "replayed txns", "business intact")
	for _, mode := range []Mode{ModeADC, ModeADCNoCG} {
		orderCounts := cgOrders
		if mode == ModeADCNoCG {
			orderCounts = noCGOrders
		}
		for i, orders := range orderCounts {
			r, err := newRig(rigParams{
				seed: seed + int64(i),
				mode: mode,
				link: netlink.Config{Propagation: 3 * time.Millisecond, BandwidthBps: 4e6, Jitter: 2 * time.Millisecond},
			})
			if err != nil {
				return nil, fmt.Errorf("E8 %s orders=%d: %w", mode, orders, err)
			}
			// Drive the workload and cut mid-stream so the WAL at the
			// backup carries real replay work.
			r.env.Process("orders", func(p *sim.Proc) { r.shop.Run(p, orders) })
			r.env.Run(r.env.Now() + time.Duration(40+orders)*time.Millisecond)
			group, err := r.backup.CreateSnapshotGroup("disaster", []storage.VolumeID{"sales", "stock"})
			if err != nil {
				return nil, err
			}
			for _, g := range r.groups {
				g.Stop()
			}
			err = runProc(r.env, "recover", 0, func(p *sim.Proc) error {
				start := p.Now()
				salesView, stockView, err := openViews(p, group, "", "rec")
				if err != nil {
					return err
				}
				recovery := p.Now() - start
				var live, read int
				for _, v := range []*db.View{salesView, stockView} {
					l, n := v.LogBlocks()
					live, read = live+l, read+n
				}
				rep := consistency.Verify(salesView, stockView,
					r.shop.SalesCommitOrder(), r.shop.StockCommitOrder())
				t.AddRow(mode, orders, recovery,
					salesView.LogReadTime()+stockView.LogReadTime(),
					fmt.Sprintf("%d/%d", live, read),
					salesView.PageReadTime()+stockView.PageReadTime(),
					salesView.RecoveredTxns()+stockView.RecoveredTxns(),
					!rep.Collapsed() && rep.OrderingOK())
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	t.AddNote("shape: recovery time grows with replay volume; intact=true needs the consistency group")
	t.AddNote("recovery time = 2 superblock reads + log read + page read; a request runs ceil(blocks/free slots) rounds of the read latency")
	t.AddNote("a log is read in chunks of 1, 2, 4, ... blocks until the chunk that holds its first non-live block: L live blocks cost at most 2L+1 reads")
	return t, nil
}
