// Package telemetry is the simulation's observability plane: a registry of
// named, labeled instruments (counters, gauges, histograms, probed time
// series) plus sim-time span tracing, shared by every subsystem instead of
// being hand-threaded through one experiment at a time.
//
// Determinism rules (load-bearing — the golden tests enforce them):
//
//   - Instruments may be recorded ONLY from domain-0 steps or from probe
//     callbacks. Domain-0 steps always run alone (never inside a parallel
//     round), so recording needs no locks and happens in the identical
//     total order under the sequential and parallel schedulers.
//   - Probes are sampled by an Env.OnAdvance observer, which fires on the
//     scheduler goroutine between instants: it consumes no sequence
//     numbers and schedules nothing, so enabling telemetry cannot perturb
//     the (at, seq) kernel trace, and exports are byte-identical under
//     Env.RunParallel vs the sequential scheduler.
//   - A nil *Registry is the disabled plane: every constructor returns a
//     nil instrument whose methods no-op without allocating, so the
//     disabled hot path is free.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultSamplePeriod is the probe sampling period when Config leaves it 0.
const DefaultSamplePeriod = 500 * time.Millisecond

// Config parameterizes a telemetry registry.
type Config struct {
	// SamplePeriod is the virtual-time interval between probe samples.
	// Probes fire at every multiple of the period (P, 2P, ...) the clock
	// crosses. Defaults to DefaultSamplePeriod.
	SamplePeriod time.Duration
}

// Label is one key=value attribute on an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry owns every instrument and span of one simulated system. A nil
// Registry is valid and means telemetry is disabled.
type Registry struct {
	env    *sim.Env
	period time.Duration

	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
	probes     []*Probe
	byKey      map[string]any

	spans []span
}

// New builds a registry sampling probes on env's virtual clock.
func New(env *sim.Env, cfg Config) *Registry {
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = DefaultSamplePeriod
	}
	r := &Registry{env: env, period: cfg.SamplePeriod, byKey: make(map[string]any)}
	env.OnAdvance(r.sample)
	return r
}

// SamplePeriod returns the probe sampling period (0 when disabled).
func (r *Registry) SamplePeriod() time.Duration {
	if r == nil {
		return 0
	}
	return r.period
}

// key canonicalizes name+labels: labels are sorted by key so registration
// order cannot leak into export order.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a registered monotonic count.
type Counter struct {
	key string
	c   metrics.Counter
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if got, ok := r.byKey[k]; ok {
		if c, ok := got.(*Counter); ok {
			return c
		}
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", k))
	}
	c := &Counter{key: k}
	r.byKey[k] = c
	r.counters = append(r.counters, c)
	return c
}

// Inc adds one. No-op on a nil (disabled) counter.
func (c *Counter) Inc() {
	if c != nil {
		c.c.Inc()
	}
}

// Add adds delta. No-op on a nil (disabled) counter.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.c.Add(delta)
	}
}

// Value returns the current count (0 when disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.c.Value()
}

// Gauge is a registered instantaneous value with tracked extremes.
type Gauge struct {
	key string
	g   metrics.Gauge
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if got, ok := r.byKey[k]; ok {
		if g, ok := got.(*Gauge); ok {
			return g
		}
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", k))
	}
	g := &Gauge{key: k}
	r.byKey[k] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Set records a new value. No-op on a nil (disabled) gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.g.Set(v)
	}
}

// Value returns the last value set (0 when disabled).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.g.Value()
}

// Max returns the largest value ever set (0 when disabled).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.g.Max()
}

// Histogram is a registered duration histogram.
type Histogram struct {
	key string
	h   *metrics.Histogram
}

// Histogram returns the histogram for name+labels, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if got, ok := r.byKey[k]; ok {
		if h, ok := got.(*Histogram); ok {
			return h
		}
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", k))
	}
	h := &Histogram{key: k, h: metrics.NewHistogram()}
	r.byKey[k] = h
	r.histograms = append(r.histograms, h)
	return h
}

// Record adds one sample. No-op on a nil (disabled) histogram.
func (h *Histogram) Record(d time.Duration) {
	if h != nil {
		h.h.Record(d)
	}
}

// Snapshot returns the underlying histogram (nil when disabled). Callers
// may Merge it into aggregates but must not Record through it.
func (h *Histogram) Snapshot() *metrics.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// Probe is a registered callback sampled into a time series at every
// multiple of the registry's sample period.
type Probe struct {
	key    string
	fn     func(now time.Duration) (float64, bool)
	series *metrics.Series
	closed bool
}

// Probe registers fn to be sampled on the virtual clock. fn returns the
// instantaneous value and whether the sample should be recorded (a probe
// over a stopped component returns false to end its timeline). Close the
// probe when the observed component is torn down.
//
// Re-registering an existing key REBINDS the probe: the new callback
// continues the same series. That is the component-replacement contract —
// when the control plane swaps a tenant's replication engine (the live
// 1→N reshard upgrade, or a reconcile retry after a partial failure), the
// tenant's timeline continues under its key instead of panicking or
// forking.
func (r *Registry) Probe(name string, fn func(now time.Duration) (float64, bool), labels ...Label) *Probe {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	if got, ok := r.byKey[k]; ok {
		p, ok := got.(*Probe)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", k))
		}
		p.fn = fn
		p.closed = false
		return p
	}
	p := &Probe{key: k, fn: fn, series: metrics.NewSeries(k)}
	r.byKey[k] = p
	r.probes = append(r.probes, p)
	return p
}

// Close stops sampling; the series recorded so far stays in the export.
// No-op on a nil (disabled) probe.
func (p *Probe) Close() {
	if p != nil {
		p.closed = true
	}
}

// sample is the Env.OnAdvance observer: it fires every probe at each
// multiple of the period inside (from, to]. It runs on the scheduler
// goroutine while every process is parked, so the sampled state is the
// exact state of the instant being left, and sampling can neither race
// with steps nor perturb the (at, seq) order.
func (r *Registry) sample(from, to time.Duration) {
	p := r.period
	for at := (from/p + 1) * p; at <= to; at += p {
		for _, pr := range r.probes {
			if pr.closed {
				continue
			}
			if v, ok := pr.fn(at); ok {
				pr.series.Append(at, v)
			}
		}
	}
}

// span is one recorded trace interval (or instant, when end == start and
// instant is set).
type span struct {
	cat, name, track string
	start, end       time.Duration
	instant          bool
}

// endAt is when the span ended, a span still open ending now.
func (sp *span) endAt(now time.Duration) time.Duration {
	if sp.end < 0 {
		return now
	}
	return sp.end
}

// Span is a handle to an open span. The zero Span (from a nil registry)
// no-ops on End.
type Span struct {
	r   *Registry
	idx int
}

// StartSpan opens a span at the current virtual time. cat groups spans of
// one kind (e.g. "epoch", "reshard"); track names the Perfetto row the
// span renders on (e.g. the tenant namespace). Call End on the returned
// handle from a later domain-0 step.
func (r *Registry) StartSpan(cat, name, track string) Span {
	if r == nil {
		return Span{}
	}
	r.spans = append(r.spans, span{cat: cat, name: name, track: track, start: r.env.Now(), end: -1})
	return Span{r: r, idx: len(r.spans)}
}

// End closes the span at the current virtual time. Ending twice panics.
func (s Span) End() {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.idx-1]
	if sp.end >= 0 {
		panic(fmt.Sprintf("telemetry: span %s/%s ended twice", sp.cat, sp.name))
	}
	sp.end = s.r.env.Now()
}

// Instant records a zero-duration marker event at the current virtual time.
func (r *Registry) Instant(cat, name, track string) {
	if r == nil {
		return
	}
	now := r.env.Now()
	r.spans = append(r.spans, span{cat: cat, name: name, track: track, start: now, end: now, instant: true})
}
