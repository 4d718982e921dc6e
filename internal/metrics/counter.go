package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Counter is a monotonically increasing event count. A nil *Counter is the
// disabled instrument: it records nothing and reads zero.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge tracks an instantaneous value along with its observed extremes. A
// nil *Gauge is the disabled instrument: it records nothing and reads zero.
type Gauge struct {
	v, max, min int64
	set         bool
}

// Set records a new value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	if !g.set || v < g.min {
		g.min = v
	}
	g.set = true
}

// Value returns the last value set.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value ever set (0 if never set).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Min returns the smallest value ever set (0 if never set).
func (g *Gauge) Min() int64 {
	if g == nil {
		return 0
	}
	return g.min
}

// Series is a time-ordered sequence of (virtual time, value) points, used
// for journal backlog and RPO traces. A nil *Series is the empty series: it
// reads zero and has an empty window.
type Series struct {
	name   string
	points []Point
}

// Point is one sample in a Series.
type Point struct {
	At    time.Duration
	Value float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Append records a point. Points must be appended in nondecreasing time
// order; out-of-order appends panic because they indicate a harness bug.
func (s *Series) Append(at time.Duration, v float64) {
	if n := len(s.points); n > 0 && at < s.points[n-1].At {
		panic(fmt.Sprintf("metrics: series %q time went backwards: %v < %v", s.name, at, s.points[n-1].At))
	}
	s.points = append(s.points, Point{At: at, Value: v})
}

// Points returns the recorded points (not a copy; callers must not mutate).
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	return s.points
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points()) }

// Max returns the maximum value in the series, or 0 when empty.
func (s *Series) Max() float64 {
	var m float64
	for i, p := range s.Points() {
		if i == 0 || p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values, or 0 when empty.
func (s *Series) Mean() float64 {
	pts := s.Points()
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	return sum / float64(len(pts))
}

// Window returns the points with from <= At <= to as a series sharing this
// one's storage (a nil series has an empty window). Max, Mean and Len of a
// window of the probed "rpo" series are how every RPO figure is read.
func (s *Series) Window(from, to time.Duration) *Series {
	pts := s.Points()
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].At >= from })
	hi := max(lo, sort.Search(len(pts), func(i int) bool { return pts[i].At > to }))
	return &Series{points: pts[lo:hi:hi]}
}
