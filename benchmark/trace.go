package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// span is one call the driver made into the system. Spans nest by Parent
// (an index into the log, -1 for an iteration's root) and share Iter.
type span struct {
	Name        string `json:"name"`
	Parent      int    `json:"parent"`
	Iter        int    `json:"iter"`
	HostStartNS int64  `json:"host_start_ns"`
	HostEndNS   int64  `json:"host_end_ns"`
	SimStartNS  int64  `json:"sim_start_ns"`
	SimEndNS    int64  `json:"sim_end_ns"`
}

// tracer is the benchmark-side span log of the traced pass. It measures
// from outside: spans wrap the driver's calls, nothing inside the system is
// instrumented. A nil tracer is the measured pass — every method is a no-op
// and telemetry stays off.
type tracer struct {
	t0    time.Time
	env   *sim.Env
	iter  int
	open  []int
	spans []span

	// lastExport is the telemetry export of the last system traced.
	lastExport []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// telemetry returns the core.Config.Telemetry value for this pass.
func (t *tracer) telemetry(period time.Duration) *telemetry.Config {
	if t == nil {
		return nil
	}
	return &telemetry.Config{SamplePeriod: period}
}

// bind points the tracer's simulated clock at the system now being driven.
func (t *tracer) bind(env *sim.Env) {
	if t != nil {
		t.env = env
	}
}

func (t *tracer) simNow() int64 {
	if t.env == nil {
		return 0
	}
	return int64(t.env.Now())
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Iter: t.iter,
		HostStartNS: int64(time.Since(t.t0)), SimStartNS: t.simNow(),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.HostEndNS, s.SimEndNS = int64(time.Since(t.t0)), t.simNow()
	// Spans of concurrent simulated processes may close out of order.
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// collectTelemetry reads the system's registry from outside: the export is
// the telemetry layer's work product, and the controller instruments in it
// are the only public view of reconcile counts.
func (t *tracer) collectTelemetry(sys *core.System, out *iterOut) {
	if t == nil || sys.Telemetry == nil {
		return
	}
	ex := sys.Telemetry.Snapshot()
	for key, h := range ex.Histograms {
		if strings.HasPrefix(key, "controller.reconcile.latency") {
			out.counts["control.reconciles"] += float64(h.Count)
		}
	}
	for key, n := range ex.Counters {
		if strings.HasPrefix(key, "controller.requeues") {
			out.counts["control.reconcile_errors"] += float64(n)
		}
	}
	for _, pts := range ex.Series {
		out.counts["telemetry.series_points"] += float64(len(pts))
	}
	for _, ev := range ex.TraceEvents {
		if ev.Ph != "M" {
			out.counts["telemetry.spans"]++
		}
	}
	if js, err := sys.Telemetry.ExportJSON(); err == nil {
		out.counts["telemetry.export_bytes"] += float64(len(js))
		t.lastExport = js
	}
}

// phaseSeconds sums host time per span name over the log and divides by
// the iterations traced.
func (t *tracer) phaseSeconds(iters int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.HostEndNS-s.HostStartNS) / 1e9 / float64(iters)
	}
	return out
}
