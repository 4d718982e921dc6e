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

// TestSeriesWindow pins the one RPO read: a window keeps the points with
// from <= At <= to, and its Len/Max/Mean read only those.
func TestSeriesWindow(t *testing.T) {
	s := NewSeries("rpo")
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	cases := []struct {
		name      string
		s         *Series
		from, to  time.Duration
		len       int
		max, mean float64
	}{
		{"inclusive bounds", s, 2 * time.Second, 5 * time.Second, 4, 5, 3.5},
		{"bounds between points", s, 1500 * time.Millisecond, 5500 * time.Millisecond, 4, 5, 3.5},
		{"single point", s, 7 * time.Second, 7 * time.Second, 1, 7, 7},
		{"whole series", s, 0, time.Hour, 10, 9, 4.5},
		{"after the last point", s, time.Minute, 2 * time.Minute, 0, 0, 0},
		{"between two points", s, 2100 * time.Millisecond, 2900 * time.Millisecond, 0, 0, 0},
		{"inverted", s, 5 * time.Second, 2 * time.Second, 0, 0, 0},
		{"nil receiver", nil, 0, time.Hour, 0, 0, 0},
	}
	for _, c := range cases {
		w := c.s.Window(c.from, c.to)
		if w.Len() != c.len || w.Max() != c.max || w.Mean() != c.mean {
			t.Errorf("%s: [%v, %v] len/max/mean = %d/%v/%v, want %d/%v/%v",
				c.name, c.from, c.to, w.Len(), w.Max(), w.Mean(), c.len, c.max, c.mean)
		}
		for _, p := range w.Points() {
			if p.At < c.from || p.At > c.to {
				t.Errorf("%s: point at %v outside [%v, %v]", c.name, p.At, c.from, c.to)
			}
		}
	}
	// A window shares storage, and appending to it never reaches the parent.
	w := s.Window(2*time.Second, 3*time.Second)
	if &w.Points()[0] != &s.Points()[2] {
		t.Error("window copied its points")
	}
	w.Append(4*time.Second, -1)
	if s.Points()[4].Value != 4 {
		t.Errorf("append to a window overwrote the parent: %v", s.Points()[4])
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
