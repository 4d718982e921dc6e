package telemetry

import (
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Series returns the probed series registered under name+labels, or nil.
func (r *Registry) Series(name string, labels ...Label) *metrics.Series {
	if r == nil {
		return nil
	}
	if p, ok := r.byKey[key(name, labels)].(*Probe); ok {
		return p.series
	}
	return nil
}

// SeriesRank is one entry of a TopK answer.
type SeriesRank struct {
	Key string        // full instrument key (name + labels)
	Max float64       // worst value observed in the window
	At  time.Duration // time of the first sample reaching Max
}

// TopK ranks every probed series registered under name (any label set) by
// its maximum value over the window [from, to] and returns the worst k.
// This is the autopilot's sensor query: "which tenants have the worst RPO
// right now". Series with no samples in the window are skipped. Ties break
// on key order so the answer is deterministic.
func (r *Registry) TopK(name string, k int, from, to time.Duration) []SeriesRank {
	if r == nil || k <= 0 {
		return nil
	}
	prefix := name + "{"
	var ranks []SeriesRank
	for _, p := range r.probes {
		if p.key != name && !strings.HasPrefix(p.key, prefix) {
			continue
		}
		var (
			best   float64
			bestAt time.Duration
			seen   bool
		)
		for _, pt := range p.series.Window(from, to).Points() {
			if !seen || pt.Value > best {
				best, bestAt, seen = pt.Value, pt.At, true
			}
		}
		if seen {
			ranks = append(ranks, SeriesRank{Key: p.key, Max: best, At: bestAt})
		}
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].Max != ranks[j].Max {
			return ranks[i].Max > ranks[j].Max
		}
		return ranks[i].Key < ranks[j].Key
	})
	if len(ranks) > k {
		ranks = ranks[:k]
	}
	return ranks
}
