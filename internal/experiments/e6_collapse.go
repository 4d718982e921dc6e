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

// E6Collapse reproduces the paper's central consistency claim (§I): under
// ADC, a disaster that cuts replication mid-stream leaves the backup
// collapsed unless the volumes share a consistency group. Each trial runs
// the two-resource workload over a constrained link, cuts the simulation at
// a disaster instant, freezes the backup image with an (instantaneous)
// array snapshot group, recovers the databases from the frozen image, and
// checks cross-database atomicity. Every mode runs the same trial seeds.
//
// Expected shape: ADC-noCG collapses in a large fraction of trials;
// ADC+CG never collapses; per-volume ordering holds in both.
func E6Collapse(seedBase int64, trials, orders int, modes ...Mode) (*Table, error) {
	t := NewTable("E6: backup collapse under disaster cut (paper §I claim)",
		"mode", "trials", "collapsed", "collapse%", "mean orphans", "ordering broken")
	for _, mode := range modes {
		var collapsed, orphans, orderingBroken int
		for trial := 0; trial < trials; trial++ {
			rep, err := collapseTrial(seedBase+int64(trial)*7919, orders, mode)
			if err != nil {
				return nil, fmt.Errorf("E6 %s trial %d: %w", mode, trial, err)
			}
			if rep.Collapsed() {
				collapsed++
				orphans += len(rep.OrphanStock)
			}
			if !rep.OrderingOK() {
				orderingBroken++
			}
		}
		pct, meanOrphans := 0.0, 0.0
		if trials > 0 {
			pct = 100 * float64(collapsed) / float64(trials)
			meanOrphans = float64(orphans) / float64(trials)
		}
		t.AddRow(mode, trials, collapsed, pct, meanOrphans, orderingBroken)
	}
	t.AddNote("shape: ADC-noCG collapses often; ADC+CG never; per-volume ordering never breaks")
	return t, nil
}

func collapseTrial(seed int64, orders int, mode Mode) (consistency.Report, error) {
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
