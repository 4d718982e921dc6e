// Package telemetry is the simulation's observability plane: a registry of
// named, labeled instruments (counters, gauges, histograms, probed time
// series) plus sim-time span tracing, shared by every subsystem instead of
// being hand-threaded through one experiment at a time.
//
// Determinism rules (load-bearing — the golden tests enforce them):
//
//   - Recording happens on the scheduler's single thread of control (in a
//     step or a probe callback), so it needs no locks and happens in the
//     same total order on every run of a seed.
//   - Probes are sampled by an Env.OnAdvance observer, which fires on the
//     scheduler goroutine between instants: it consumes no sequence
//     numbers and schedules nothing, so enabling telemetry cannot perturb
//     the (at, seq) kernel trace.
//   - A nil *Registry is the disabled plane: every constructor returns a
//     nil instrument (the metrics types and Probe are nil-safe) whose
//     methods no-op without allocating, so the disabled hot path is free.
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

	// byKey holds every instrument (*metrics.Counter, *metrics.Gauge,
	// *metrics.Histogram, *Probe) under its canonical key; probes repeats
	// the probes in registration order, the order sample fires them in.
	byKey  map[string]any
	probes []*Probe

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

// instrument is the one get-or-create behind every registration: the *T
// registered under name+labels, built by mk on first use. A nil registry
// answers nil — the disabled instrument — and a key already taken by another
// kind of instrument panics.
func instrument[T any](r *Registry, name string, labels []Label, mk func(key string) *T) *T {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	got, ok := r.byKey[k]
	if !ok {
		v := mk(k)
		r.byKey[k] = v
		return v
	}
	v, ok := got.(*T)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a different instrument kind", k))
	}
	return v
}

// Counter returns the monotonic count for name+labels, creating it on first
// use (nil, which records nothing, when the registry is disabled).
func (r *Registry) Counter(name string, labels ...Label) *metrics.Counter {
	return instrument(r, name, labels, func(string) *metrics.Counter { return new(metrics.Counter) })
}

// Gauge returns the instantaneous value with tracked extremes for
// name+labels, creating it on first use (nil when disabled).
func (r *Registry) Gauge(name string, labels ...Label) *metrics.Gauge {
	return instrument(r, name, labels, func(string) *metrics.Gauge { return new(metrics.Gauge) })
}

// Histogram returns the duration histogram for name+labels, creating it on
// first use (nil when disabled).
func (r *Registry) Histogram(name string, labels ...Label) *metrics.Histogram {
	return instrument(r, name, labels, func(string) *metrics.Histogram { return metrics.NewHistogram() })
}

// Probe is a registered callback sampled into a time series at every
// multiple of the registry's sample period.
type Probe struct {
	key    string
	fn     func(now time.Duration) (float64, bool)
	series *metrics.Series
}

// Probe registers fn to be sampled on the virtual clock. fn returns the
// instantaneous value and whether the sample should be recorded (a probe
// over a stopped component returns false to end its timeline).
//
// Re-registering an existing key REBINDS the probe: the new callback
// continues the same series. That is the component-replacement contract —
// when the control plane swaps a tenant's replication engine (the live
// 1→N reshard upgrade, or a reconcile retry after a partial failure), the
// tenant's timeline continues under its key instead of panicking or
// forking.
func (r *Registry) Probe(name string, fn func(now time.Duration) (float64, bool), labels ...Label) *Probe {
	if r == nil {
		return nil // before the closure over r below is built
	}
	p := instrument(r, name, labels, func(k string) *Probe {
		p := &Probe{key: k, series: metrics.NewSeries(k)}
		r.probes = append(r.probes, p)
		return p
	})
	p.fn = fn
	return p
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
// handle from a later step.
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
