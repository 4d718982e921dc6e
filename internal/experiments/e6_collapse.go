package experiments

import (
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// CollapseResult aggregates E6 trials for one configuration.
type CollapseResult struct {
	Mode           Mode
	Trials         int
	Collapsed      int     // trials whose backup image was collapsed
	MeanOrphans    float64 // mean collapse witnesses per trial
	OrderingBroken int     // per-volume prefix violations (must stay 0)
}

// E6Collapse reproduces the paper's central consistency claim (§I): under
// ADC, a disaster that cuts replication mid-stream leaves the backup
// collapsed unless the volumes share a consistency group. Each trial runs
// the two-resource workload over a constrained link, cuts the simulation at
// a disaster instant, freezes the backup image with an (instantaneous)
// array snapshot group, recovers the databases from the frozen image, and
// checks cross-database atomicity.
//
// Expected shape: ADC-noCG collapses in a large fraction of trials;
// ADC+CG never collapses; per-volume ordering holds in both.
func E6Collapse(seedBase int64, trials, orders int, mode Mode) (CollapseResult, error) {
	res := CollapseResult{Mode: mode, Trials: trials}
	var orphanSum int
	for trial := 0; trial < trials; trial++ {
		rep, err := collapseTrial(seedBase+int64(trial)*7919, orders, mode, trial)
		if err != nil {
			return res, fmt.Errorf("E6 trial %d: %w", trial, err)
		}
		if rep.Collapsed() {
			res.Collapsed++
			orphanSum += len(rep.OrphanStock)
		}
		if !rep.OrderingOK() {
			res.OrderingBroken++
		}
	}
	if trials > 0 {
		res.MeanOrphans = float64(orphanSum) / float64(trials)
	}
	return res, nil
}

func collapseTrial(seed int64, orders int, mode Mode, trial int) (consistency.Report, error) {
	// A link slow enough that a backlog exists at the cut, plus jitter so
	// the two per-volume drains interleave differently across trials.
	r, err := newRig(rigParams{
		seed: seed,
		mode: mode,
		link: netlink.Config{
			Propagation:  4 * time.Millisecond,
			BandwidthBps: 3e6,
			Jitter:       8 * time.Millisecond,
		},
		repl: replication.Config{BatchMax: 4},
	})
	if err != nil {
		return consistency.Report{}, err
	}
	// Drive orders; the disaster cuts the run mid-stream at a
	// seed-dependent random instant.
	start := r.env.Now()
	r.env.Process("orders", func(p *sim.Proc) { r.shop.Run(p, orders) })
	cut := start + 100*time.Millisecond + time.Duration(r.env.Rand().Int63n(int64(150*time.Millisecond)))
	r.env.Run(cut)

	// Disaster: freeze the backup image at this instant. Array snapshot
	// groups are instantaneous, so the image is exactly the applied state
	// at the cut even though drains would otherwise keep running.
	group, err := r.backup.CreateSnapshotGroup("disaster", []storage.VolumeID{"sales", "stock"})
	if err != nil {
		return consistency.Report{}, err
	}
	for _, g := range r.groups {
		g.Stop()
	}

	// Recover databases from the frozen image and verify.
	var rep consistency.Report
	err = runProc(r.env, "verify", 0, func(p *sim.Proc) error {
		salesView, stockView, err := openViews(p, group, "", "disaster")
		if err != nil {
			return err
		}
		rep = consistency.Verify(salesView, stockView,
			r.shop.SalesCommitOrder(), r.shop.StockCommitOrder())
		return nil
	})
	return rep, err
}

// E6Table renders E6 results.
func E6Table(results []CollapseResult) *Table {
	t := NewTable("E6: backup collapse under disaster cut (paper §I claim)",
		"mode", "trials", "collapsed", "collapse%", "mean orphans", "ordering broken")
	for _, r := range results {
		pct := 0.0
		if r.Trials > 0 {
			pct = 100 * float64(r.Collapsed) / float64(r.Trials)
		}
		t.AddRow(string(r.Mode), r.Trials, r.Collapsed, pct, r.MeanOrphans, r.OrderingBroken)
	}
	t.AddNote("shape: ADC-noCG collapses often; ADC+CG never; per-volume ordering never breaks")
	return t
}
