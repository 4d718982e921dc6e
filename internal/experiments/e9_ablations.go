package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E9BatchSweep ablates the ADC drain's batch size: small batches waste link
// round trips (each transfer pays propagation), large batches raise RPO
// spikes. This is the main tunable DESIGN.md calls out.
//
// Expected shape: transfers fall ~1/batch; drain span shrinks then
// flattens; per-record overhead amortizes.
func E9BatchSweep(seed int64, batches []int, orders int) (*Table, error) {
	t := NewTable("E9a: ADC journal batch size ablation",
		"batch", "link transfers", "mean RPO", "drain tail", "link bytes")
	for _, b := range batches {
		r, err := newRig(rigParams{
			seed: seed,
			mode: ModeADC,
			link: netlink.Config{Propagation: 5 * time.Millisecond, BandwidthBps: 1e8},
			repl: replication.Config{BatchMax: b},
		})
		if err != nil {
			return nil, fmt.Errorf("E9 batch=%d: %w", b, err)
		}
		reg := r.probe(5 * time.Millisecond)
		start := r.env.Now()
		var drainStart, drainEnd time.Duration
		if err := runProc(r.env, "orders", 0, func(p *sim.Proc) error {
			if err := r.shop.Run(p, orders); err != nil {
				return err
			}
			drainStart = p.Now()
			r.groups[0].CatchUp(p)
			drainEnd = p.Now()
			return nil
		}); err != nil {
			return nil, err
		}
		r.stop()
		t.AddRow(b, r.links.Forward.Transfers(),
			time.Duration(reg.Series("rpo", rigTenant).Window(start, drainEnd).Mean()),
			drainEnd-drainStart, r.links.Forward.SentBytes())
	}
	t.AddNote("shape: transfers fall ~1/batch; RPO bottoms out at moderate batch sizes")
	return t, nil
}

// E9CGScale ablates the cost of sharing one journal across many volumes:
// the paper's design assumes consistency groups do not slow the main site
// down even as the group grows. Each round-robin transaction commits one
// write to one of n journaled volumes.
//
// Expected shape: commit latency flat in n for both shared-journal (CG) and
// per-volume journals — the group costs nothing on the host path.
func E9CGScale(seed int64, volumeCounts []int, writesPerVol int) (*Table, error) {
	t := NewTable("E9b: consistency-group size ablation — host write latency",
		"volumes", "mode", "mean write", "writes/s")
	for _, n := range volumeCounts {
		for _, shared := range []bool{true, false} {
			env := sim.NewEnv(seed)
			main := storage.NewArray(env, "main", storage.Config{})
			backup := storage.NewArray(env, "backup", storage.Config{})
			link := netlink.New(env, netlink.Config{Propagation: 5 * time.Millisecond, BandwidthBps: 1e9})
			var vols []storage.VolumeID
			for i := 0; i < n; i++ {
				vols = append(vols, storage.VolumeID(fmt.Sprintf("vol-%03d", i)))
			}
			if err := createTwins(main, backup, 256, vols...); err != nil {
				return nil, err
			}
			var groups []*replication.Group
			if shared {
				g, err := startADC(env, main, backup, "cg", vols, link, replication.Config{})
				if err != nil {
					return nil, err
				}
				groups = append(groups, g)
			} else {
				for _, v := range vols {
					g, err := startADC(env, main, backup, string(v), []storage.VolumeID{v}, link, replication.Config{})
					if err != nil {
						return nil, err
					}
					groups = append(groups, g)
				}
			}
			hist := metrics.NewHistogram()
			if err := runProc(env, "writer", 0, func(p *sim.Proc) error {
				buf := make([]byte, main.Config().BlockSize)
				for w := 0; w < writesPerVol; w++ {
					for _, id := range vols {
						v, _ := main.Volume(id)
						start := p.Now()
						if _, err := v.Write(p, int64(w%256), buf); err != nil {
							return err
						}
						hist.Record(p.Now() - start)
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
			span := env.Now()
			for _, g := range groups {
				g.Stop()
			}
			env.Run(0)
			mode := ModeADC
			if !shared {
				mode = ModeADCNoCG
			}
			t.AddRow(n, mode, hist.Mean(), float64(hist.Count())/span.Seconds())
		}
	}
	t.AddNote("shape: host write latency flat in group size; CG adds no main-path cost over per-volume journals")
	return t, nil
}

// E9SkewSweep ablates item-popularity skew: heavily skewed stock updates
// concentrate on few pages, stressing the WAL and journal ordering paths
// differently than uniform traffic. The paper's claims must hold regardless.
func E9SkewSweep(seed int64, skews []float64, orders int) (*Table, error) {
	t := NewTable("E9c: workload skew ablation under ADC+CG",
		"zipf s", "mean order", "orders/s")
	for _, s := range skews {
		r, err := newRig(rigParams{
			seed:     seed,
			mode:     ModeADC,
			link:     netlink.Config{Propagation: 5 * time.Millisecond, BandwidthBps: 1e9},
			workload: workload.Config{ZipfS: s},
		})
		if err != nil {
			return nil, err
		}
		span, err := r.runOrders(orders)
		if err != nil {
			return nil, fmt.Errorf("E9 skew=%v: %w", s, err)
		}
		r.stop()
		t.AddRow(s, r.shop.Latency.Mean(), float64(orders)/span.Seconds())
	}
	t.AddNote("shape: latency insensitive to skew (journal order, not page locality, governs the path)")
	return t, nil
}
