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

// RecoveryResult is one row of experiment E8.
type RecoveryResult struct {
	Mode           Mode
	Orders         int
	RecoveryTime   time.Duration // simulated downtime: WAL replay of both DBs
	LogRead        time.Duration // of which: the two logs, each read in doubling chunks until it ends
	LogLive        int           // WAL blocks the two log reads found live
	LogBlocksRead  int           // and read to find where the logs end
	PageRead       time.Duration // of which: the pages the redo touches, one scatter read each
	RecoveredTxns  int
	BusinessIntact bool // cross-DB verification passed
}

// E8Recovery measures the downtime half of the paper's claim: after a
// disaster, how long does backup-site recovery take and does it yield a
// usable system? The sweep grows the amount of committed-but-uncheckpointed
// work (the WAL replay recovery must do). It runs once in the consistent
// configuration and once without consistency groups, where recovery
// completes per database but the business process is broken when the image
// collapsed.
//
// Expected shape: recovery time grows with WAL backlog; BusinessIntact is
// always true for ADC+CG and frequently false for ADC-noCG.
func E8Recovery(seed int64, orderCounts []int, mode Mode) ([]RecoveryResult, error) {
	var out []RecoveryResult
	for i, orders := range orderCounts {
		r, err := newRig(rigParams{
			seed: seed + int64(i),
			mode: mode,
			link: netlink.Config{Propagation: 3 * time.Millisecond, BandwidthBps: 4e6, Jitter: 2 * time.Millisecond},
		})
		if err != nil {
			return nil, fmt.Errorf("E8 orders=%d: %w", orders, err)
		}
		// Drive the workload and cut mid-stream so the WAL at the backup
		// carries real replay work.
		r.env.Process("orders", func(p *sim.Proc) { r.shop.Run(p, orders) })
		r.env.Run(r.env.Now() + time.Duration(40+orders)*time.Millisecond)
		group, err := r.backup.CreateSnapshotGroup("disaster", []storage.VolumeID{"sales", "stock"})
		if err != nil {
			return nil, err
		}
		for _, g := range r.groups {
			g.Stop()
		}
		var rec RecoveryResult
		rec.Mode = mode
		rec.Orders = orders
		var verr error
		r.env.Process("recover", func(p *sim.Proc) {
			start := p.Now()
			salesView, err := db.OpenView(p, "sales@rec", group.Snapshot("sales"), db.Config{})
			if err != nil {
				verr = err
				return
			}
			stockView, err := db.OpenView(p, "stock@rec", group.Snapshot("stock"), db.Config{})
			if err != nil {
				verr = err
				return
			}
			rec.RecoveryTime = p.Now() - start
			rec.LogRead = salesView.LogReadTime() + stockView.LogReadTime()
			for _, v := range []*db.View{salesView, stockView} {
				live, read := v.LogBlocks()
				rec.LogLive += live
				rec.LogBlocksRead += read
			}
			rec.PageRead = salesView.PageReadTime() + stockView.PageReadTime()
			rec.RecoveredTxns = salesView.RecoveredTxns() + stockView.RecoveredTxns()
			rep := consistency.Verify(salesView, stockView,
				r.shop.SalesCommitOrder(), r.shop.StockCommitOrder())
			rec.BusinessIntact = !rep.Collapsed() && rep.OrderingOK()
		})
		r.env.Run(0)
		if verr != nil {
			return nil, verr
		}
		out = append(out, rec)
	}
	return out, nil
}

// E8Table renders E8 results.
func E8Table(results []RecoveryResult) *Table {
	t := NewTable("E8: backup-site recovery (downtime) vs replay volume (paper §I claim)",
		"mode", "orders", "recovery time", "log read", "log blocks live/read", "page read", "replayed txns", "business intact")
	for _, r := range results {
		t.AddRow(string(r.Mode), r.Orders, r.RecoveryTime, r.LogRead, fmt.Sprintf("%d/%d", r.LogLive, r.LogBlocksRead), r.PageRead, r.RecoveredTxns, r.BusinessIntact)
	}
	t.AddNote("shape: recovery time grows with replay volume; intact=true needs the consistency group")
	t.AddNote("recovery time = 2 superblock reads + log read + page read; a request runs ceil(blocks/free slots) rounds of the read latency")
	t.AddNote("a log is read in chunks of 1, 2, 4, ... blocks until the chunk that holds its first non-live block: L live blocks cost at most 2L+1 reads")
	return t
}
