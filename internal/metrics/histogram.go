// Package metrics provides the instrument values the experiment harness and
// the telemetry registry record into: latency histograms with percentile
// queries, throughput counters, gauges, and time series. A nil *Counter,
// *Gauge or *Histogram is the disabled instrument — what a disabled
// telemetry registry hands out — so recording sites never test for it.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Histogram records duration samples and answers percentile queries. It
// keeps exact samples (experiments here record at most a few hundred
// thousand points, so exactness is cheaper than HDR bucketing and removes a
// source of error when comparing ADC vs SDC tails). A nil *Histogram is the
// disabled instrument: it records nothing and reads as empty.
type Histogram struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.samples = append(h.samples, d)
	h.sorted = false
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	return len(h.samples)
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.Count() == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h.Count() == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h.Count() == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. It returns 0 when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.Count() == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Median is Percentile(50).
func (h *Histogram) Median() time.Duration { return h.Percentile(50) }

// P99 is Percentile(99).
func (h *Histogram) P99() time.Duration { return h.Percentile(99) }

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}
