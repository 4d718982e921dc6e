package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile (0 < q < 1) of ascending s with the
// exclusive method Python's statistics.quantiles uses by default — the one
// the acceptance check applies to the ten-seed spread — so a spread printed
// here reads the same there. Positions outside the data clamp to its ends.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q*float64(n+1) - 1 // 0-based fractional index
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5 quantile of xs (any order).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile of xs (any order).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.75)
}

// percentile returns the p-th percentile (0 < p <= 100) of ascending s by
// nearest rank — the rule internal/metrics uses, so a pooled latency
// percentile here equals the one a Shop histogram would report.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// histogram counts duration samples by value. Simulated latencies take few
// distinct values, so pooling a million of them this way costs a few map
// entries instead of a million retained samples.
type histogram map[time.Duration]int

// percentiles returns the histogram's nearest-rank percentile function (in
// milliseconds) and its sample count.
func (h histogram) percentiles() (at func(p float64) float64, total int) {
	values := make([]time.Duration, 0, len(h))
	for d, n := range h {
		values = append(values, d)
		total += n
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	return func(p float64) float64 {
		if total == 0 {
			return 0
		}
		rank := int(math.Ceil(p / 100 * float64(total)))
		rank = min(max(rank, 1), total)
		for _, d := range values {
			if rank -= h[d]; rank <= 0 {
				return ms(d)
			}
		}
		return ms(values[len(values)-1])
	}, total
}

// tailLadder is the percentile ladder tail reporting climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// supportedTail returns the highest ladder percentile that still has at
// least ten samples beyond it among n samples (0 when even the median does
// not). A p99 over 300 samples rests on three points; this is the guard.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}
