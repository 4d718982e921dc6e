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

// BatchResult is one row of the E9 journal-batch ablation.
type BatchResult struct {
	BatchMax  int
	Transfers int64
	MeanRPO   time.Duration // probed every 5 ms from the first order to the drain's end
	DrainSpan time.Duration // time for the backup to fully catch up
	LinkBytes int64
}

// E9BatchSweep ablates the ADC drain's batch size: small batches waste link
// round trips (each transfer pays propagation), large batches raise RPO
// spikes. This is the main tunable DESIGN.md calls out.
//
// Expected shape: transfers fall ~1/batch; drain span shrinks then
// flattens; per-record overhead amortizes.
func E9BatchSweep(seed int64, batches []int, orders int) ([]BatchResult, error) {
	var out []BatchResult
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
		out = append(out, BatchResult{
			BatchMax:  b,
			Transfers: r.links.Forward.Transfers(),
			MeanRPO:   time.Duration(reg.Series("rpo", rigTenant).Window(start, drainEnd).Mean()),
			DrainSpan: drainEnd - drainStart,
			LinkBytes: r.links.Forward.SentBytes(),
		})
	}
	return out, nil
}

// E9BatchTable renders the batch ablation.
func E9BatchTable(results []BatchResult) *Table {
	t := NewTable("E9a: ADC journal batch size ablation",
		"batch", "link transfers", "mean RPO", "drain tail", "link bytes")
	for _, r := range results {
		t.AddRow(r.BatchMax, r.Transfers, r.MeanRPO, r.DrainSpan, r.LinkBytes)
	}
	t.AddNote("shape: transfers fall ~1/batch; RPO bottoms out at moderate batch sizes")
	return t
}

// CGScaleResult is one row of the E9 consistency-group scaling ablation.
type CGScaleResult struct {
	Volumes    int
	Mode       Mode
	MeanCommit time.Duration // mean per-transaction commit latency
	Throughput float64
}

// E9CGScale ablates the cost of sharing one journal across many volumes:
// the paper's design assumes consistency groups do not slow the main site
// down even as the group grows. Each round-robin transaction commits one
// write to one of n journaled volumes.
//
// Expected shape: commit latency flat in n for both shared-journal (CG) and
// per-volume journals — the group costs nothing on the host path.
func E9CGScale(seed int64, volumeCounts []int, writesPerVol int) ([]CGScaleResult, error) {
	var out []CGScaleResult
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
			env.Process("writer", func(p *sim.Proc) {
				buf := make([]byte, main.Config().BlockSize)
				for w := 0; w < writesPerVol; w++ {
					for _, id := range vols {
						v, _ := main.Volume(id)
						start := p.Now()
						if _, err := v.Write(p, int64(w%256), buf); err != nil {
							panic(err)
						}
						hist.Record(p.Now() - start)
					}
				}
			})
			span := env.Run(0)
			for _, g := range groups {
				g.Stop()
			}
			env.Run(0)
			mode := ModeADC
			if !shared {
				mode = ModeADCNoCG
			}
			out = append(out, CGScaleResult{
				Volumes:    n,
				Mode:       mode,
				MeanCommit: hist.Mean(),
				Throughput: float64(hist.Count()) / span.Seconds(),
			})
		}
	}
	return out, nil
}

// E9CGScaleTable renders the CG scaling ablation.
func E9CGScaleTable(results []CGScaleResult) *Table {
	t := NewTable("E9b: consistency-group size ablation — host write latency",
		"volumes", "mode", "mean write", "writes/s")
	for _, r := range results {
		t.AddRow(r.Volumes, string(r.Mode), r.MeanCommit, r.Throughput)
	}
	t.AddNote("shape: host write latency flat in group size; CG adds no main-path cost over per-volume journals")
	return t
}

// WorkloadSkewResult is one row of the E9 skew ablation.
type WorkloadSkewResult struct {
	ZipfS      float64
	Mode       Mode
	MeanOrder  time.Duration
	Throughput float64
}

// E9SkewSweep ablates item-popularity skew: heavily skewed stock updates
// concentrate on few pages, stressing the WAL and journal ordering paths
// differently than uniform traffic. The paper's claims must hold regardless.
func E9SkewSweep(seed int64, skews []float64, orders int) ([]WorkloadSkewResult, error) {
	var out []WorkloadSkewResult
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
		out = append(out, WorkloadSkewResult{
			ZipfS:      s,
			Mode:       ModeADC,
			MeanOrder:  r.shop.Latency.Mean(),
			Throughput: float64(orders) / span.Seconds(),
		})
	}
	return out, nil
}

// E9SkewTable renders the skew ablation.
func E9SkewTable(results []WorkloadSkewResult) *Table {
	t := NewTable("E9c: workload skew ablation under ADC+CG",
		"zipf s", "mean order", "orders/s")
	for _, r := range results {
		t.AddRow(r.ZipfS, r.MeanOrder, r.Throughput)
	}
	t.AddNote("shape: latency insensitive to skew (journal order, not page locality, governs the path)")
	return t
}
