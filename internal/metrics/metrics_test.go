package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	_ = h.Median()
	h.Record(time.Millisecond) // must re-sort
	if got := h.Percentile(1); got != time.Millisecond {
		t.Fatalf("p1 = %v after late record", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(2 * time.Millisecond)
	if h.Min() != 2*time.Millisecond {
		t.Fatalf("min after reset = %v", h.Min())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are nondecreasing in p, and bounded by min/max.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			h.Record(time.Duration(rng.Int63n(int64(time.Second))))
		}
		last := time.Duration(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < last || v < h.Min() || v > h.Max() {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaugeExtremes(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(-2)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 5 || g.Min() != -2 {
		t.Fatalf("gauge = %d max=%d min=%d", g.Value(), g.Max(), g.Min())
	}
}

func TestSeriesMaxAndMean(t *testing.T) {
	s := NewSeries("backlog")
	s.Append(time.Millisecond, 1)
	s.Append(2*time.Millisecond, 5)
	s.Append(4*time.Millisecond, 2)
	if s.Max() != 5 {
		t.Fatalf("max = %v", s.Max())
	}
	if got := s.Mean(); got < 2.66 || got > 2.67 {
		t.Fatalf("mean = %v, want 8/3", got)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("rpo")
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Window(2*time.Second, 5*time.Second)
	if len(w) != 4 || w[0].Value != 2 || w[3].Value != 5 {
		t.Fatalf("window [2s,5s] = %+v", w)
	}
	if w := s.Window(time.Minute, 2*time.Minute); w != nil {
		t.Fatalf("out-of-range window = %+v", w)
	}
	if w := s.Window(5*time.Second, 2*time.Second); w != nil {
		t.Fatalf("inverted window = %+v", w)
	}
	if w := s.Window(0, time.Hour); len(w) != 10 {
		t.Fatalf("full window len = %d", len(w))
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSeries("x")
	s.Append(time.Second, 1)
	s.Append(time.Millisecond, 2)
}

// TestNilInstrumentsAreDisabled pins the contract the telemetry registry's
// disabled plane rests on: a nil instrument records nothing and reads zero.
func TestNilInstrumentsAreDisabled(t *testing.T) {
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter reads %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 || g.Max() != 0 || g.Min() != 0 {
		t.Errorf("nil gauge reads %d [%d, %d]", g.Value(), g.Min(), g.Max())
	}
	var h *Histogram
	h.Record(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Median() != 0 || h.P99() != 0 {
		t.Errorf("nil histogram reads n=%d sum=%v mean=%v min=%v max=%v p50=%v p99=%v",
			h.Count(), h.Sum(), h.Mean(), h.Min(), h.Max(), h.Median(), h.P99())
	}
}
