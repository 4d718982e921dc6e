package experiments

import (
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// AnalyticsResult is one row of experiment E4.
type AnalyticsResult struct {
	Scenario      string
	OrderMean     time.Duration // main-site order latency during the window
	RPOAfter      time.Duration
	AnalyticsTime time.Duration // snapshot open + full scans
	OrdersSeen    int           // orders the analytics saw (frozen count)
	JoinUnmatched int
}

// E4Analytics measures the data-analytics step (Fig. 6): running analytics
// against backup-site snapshots affects neither the main site's order
// latency nor replication's RPO, and the analytics see a frozen, consistent
// image.
//
// Expected shape: order latency and RPO identical with and without
// analytics; join finds zero unmatched rows.
func E4Analytics(seed int64, orders int) ([]AnalyticsResult, error) {
	run := func(withAnalytics bool) (AnalyticsResult, error) {
		name := "no analytics"
		if withAnalytics {
			name = "analytics on snapshot"
		}
		res := AnalyticsResult{Scenario: name}
		sys := core.NewSystem(core.Config{Seed: seed})
		var runErr error
		sys.Env.Process("e4", func(p *sim.Proc) {
			bp, err := sys.ProvisionTenant(p, platform.TenantSpec{Namespace: "shop", PVCNames: []string{"sales", "stock"}})
			if err != nil {
				runErr = err
				return
			}
			if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.Backup = true }); err != nil {
				runErr = err
				return
			}
			if err := sys.WaitTenantCondition(p, "shop", core.CondBackupReady(), 30*time.Second); err != nil {
				runErr = err
				return
			}
			// Warm-up orders, snapshot, then the measured window.
			if err := bp.Shop.Run(p, orders/2); err != nil {
				runErr = err
				return
			}
			sys.CatchUp(p, "shop")
			group, err := sys.SnapshotBackup(p, "shop", "e4")
			if err != nil {
				runErr = err
				return
			}
			frozenOrders := orders / 2

			// Measured window: main-site orders continue; analytics
			// optionally hammer the snapshot concurrently. Reset the
			// histogram so the window's latency is isolated from warm-up.
			bp.Shop.Latency.Reset()
			done := sys.Env.NewEvent()
			if withAnalytics {
				sys.Env.Process("analytics", func(ap *sim.Proc) {
					defer done.Trigger()
					start := ap.Now()
					salesView, stockView, err := sys.AnalyticsDBs(ap, "shop", group)
					if err != nil {
						runErr = err
						return
					}
					sales, err := analytics.Sales(ap, salesView)
					if err != nil {
						runErr = err
						return
					}
					join, err := analytics.Join(ap, salesView, stockView)
					if err != nil {
						runErr = err
						return
					}
					res.AnalyticsTime = ap.Now() - start
					res.OrdersSeen = sales.Orders
					res.JoinUnmatched = join.Unmatched
					if sales.Orders != frozenOrders {
						runErr = fmt.Errorf("analytics saw %d orders, want frozen %d", sales.Orders, frozenOrders)
					}
				})
			} else {
				done.Trigger()
			}
			if err := bp.Shop.Run(p, orders/2); err != nil {
				runErr = err
				return
			}
			p.Wait(done)
			sys.CatchUp(p, "shop")
			res.RPOAfter = sys.RPO("shop")
			res.OrderMean = bp.Shop.Latency.Mean()
		})
		sys.Env.Run(time.Hour)
		sys.Stop() // quiesce so repeated runs in one process do not accumulate parked procs
		sys.Env.Run(time.Hour + time.Second)
		return res, runErr
	}
	base, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("E4 baseline: %w", err)
	}
	with, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("E4 analytics: %w", err)
	}
	return []AnalyticsResult{base, with}, nil
}

// E4Table renders E4 results.
func E4Table(results []AnalyticsResult) *Table {
	t := NewTable("E4: analytics on backup snapshots — zero interference (Fig. 6)",
		"scenario", "order mean", "RPO after", "analytics time", "orders seen", "join unmatched")
	for _, r := range results {
		t.AddRow(r.Scenario, r.OrderMean, r.RPOAfter, r.AnalyticsTime, r.OrdersSeen, r.JoinUnmatched)
	}
	t.AddNote("shape: order latency and RPO identical across scenarios; analytics see a frozen consistent image")
	return t
}
