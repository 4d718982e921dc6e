package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Export is the serialized registry: a Chrome trace-event object (load the
// JSON straight into Perfetto; it ignores the extra instrument sections)
// with the counters, gauges, histograms, and probed series riding alongside
// under their canonical keys. Marshaling is deterministic: instrument
// sections are maps (encoding/json sorts map keys), trace tracks get ids in
// sorted-name order, and spans appear in record order — which the recording
// rules make identical across schedulers.
type Export struct {
	DisplayTimeUnit string                   `json:"displayTimeUnit"`
	SamplePeriodNS  int64                    `json:"samplePeriodNs"`
	TraceEvents     []TraceEvent             `json:"traceEvents"`
	Counters        map[string]int64         `json:"counters"`
	Gauges          map[string]GaugeExport   `json:"gauges"`
	Histograms      map[string]HistExport    `json:"histograms"`
	Series          map[string][]SeriesPoint `json:"series"`
}

// TraceEvent is one Chrome trace-event record. Times are microseconds of
// virtual time ("ts"/"dur"), per the trace-event format.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// GaugeExport is one gauge's serialized state.
type GaugeExport struct {
	Last int64 `json:"last"`
	Min  int64 `json:"min"`
	Max  int64 `json:"max"`
}

// HistExport is one histogram's serialized digest.
type HistExport struct {
	Count  int   `json:"count"`
	SumNS  int64 `json:"sumNs"`
	MinNS  int64 `json:"minNs"`
	MaxNS  int64 `json:"maxNs"`
	MeanNS int64 `json:"meanNs"`
	P50NS  int64 `json:"p50Ns"`
	P99NS  int64 `json:"p99Ns"`
}

// SeriesPoint is one probed sample.
type SeriesPoint struct {
	AtNS int64   `json:"atNs"`
	V    float64 `json:"v"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Snapshot assembles the export structure. Returns the zero Export when the
// registry is disabled.
func (r *Registry) Snapshot() Export {
	ex := Export{
		DisplayTimeUnit: "ms",
		Counters:        map[string]int64{},
		Gauges:          map[string]GaugeExport{},
		Histograms:      map[string]HistExport{},
		Series:          map[string][]SeriesPoint{},
	}
	if r == nil {
		return ex
	}
	ex.SamplePeriodNS = int64(r.period)

	// Spans render one Perfetto row per track; tids go to tracks in sorted
	// name order so the layout is stable across runs.
	tracks := map[string]int{}
	for _, sp := range r.spans {
		tracks[sp.track] = 0
	}
	names := make([]string, 0, len(tracks))
	for n := range tracks {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		tracks[n] = i + 1
		ex.TraceEvents = append(ex.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": n},
		})
	}
	now := r.env.Now()
	for _, sp := range r.spans {
		ev := TraceEvent{
			Name: sp.name, Cat: sp.cat, Pid: 1, Tid: tracks[sp.track],
			Ts: micros(sp.start),
		}
		switch {
		case sp.instant:
			ev.Ph, ev.S = "i", "t"
		default:
			ev.Ph = "X"
			ev.Dur = micros(sp.endAt(now) - sp.start)
		}
		ex.TraceEvents = append(ex.TraceEvents, ev)
	}

	for k, inst := range r.byKey {
		switch v := inst.(type) {
		case *metrics.Counter:
			ex.Counters[k] = v.Value()
		case *metrics.Gauge:
			ex.Gauges[k] = GaugeExport{Last: v.Value(), Min: v.Min(), Max: v.Max()}
		case *metrics.Histogram:
			ex.Histograms[k] = HistExport{
				Count:  v.Count(),
				SumNS:  int64(v.Sum()),
				MinNS:  int64(v.Min()),
				MaxNS:  int64(v.Max()),
				MeanNS: int64(v.Mean()),
				P50NS:  int64(v.Median()),
				P99NS:  int64(v.P99()),
			}
		case *Probe:
			pts := make([]SeriesPoint, 0, v.series.Len())
			for _, pt := range v.series.Points() {
				pts = append(pts, SeriesPoint{AtNS: int64(pt.At), V: pt.Value})
			}
			ex.Series[k] = pts
		}
	}
	return ex
}

// SpanOverlap returns an error naming the first two spans of one track that
// partially overlap, nil when there are none. A track exports as one tid of
// "ph":"X" events, which the trace-event format requires to nest — Perfetto
// mis-stacks or drops a span that straddles another's end — so concurrent
// work must go on tracks of its own (a controller's workers do). Spans still
// open end now, as in the export.
func (r *Registry) SpanOverlap() error {
	if r == nil {
		return nil
	}
	now := r.env.Now()
	spans := make([]*span, 0, len(r.spans))
	for i := range r.spans {
		if sp := &r.spans[i]; !sp.instant {
			spans = append(spans, sp)
		}
	}
	// Track by track, outer spans first: by start, the longer of two that
	// start together ahead. open is then the stack of spans enclosing the
	// current one.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.endAt(now) > b.endAt(now)
	})
	var open []*span
	for _, sp := range spans {
		if len(open) > 0 && open[0].track != sp.track {
			open = open[:0]
		}
		for len(open) > 0 && open[len(open)-1].endAt(now) <= sp.start {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			if outer := open[len(open)-1]; sp.endAt(now) > outer.endAt(now) {
				return fmt.Errorf("telemetry: track %q: span %s/%s [%v, %v] straddles the end of %s/%s [%v, %v]",
					sp.track, sp.cat, sp.name, sp.start, sp.endAt(now), outer.cat, outer.name, outer.start, outer.endAt(now))
			}
		}
		open = append(open, sp)
	}
	return nil
}

// ExportJSON renders the registry deterministically (indented, so the
// export is diffable and the golden tests can compare bytes).
func (r *Registry) ExportJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", " ")
}
