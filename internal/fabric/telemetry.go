package fabric

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Instrument registers this direction's fabric probes: ingress queue depth,
// per-class cumulative bytes and admission drops, and per-member-link bytes
// on the wire. dir labels the direction ("fwd"/"rev"). All probes read
// plain counters the dispatchers maintain anyway, sampled between instants,
// so instrumentation changes no behavior. No-op when reg is nil.
func (f *Fabric) Instrument(reg *telemetry.Registry, dir string) {
	if reg == nil {
		return
	}
	reg.Probe("fabric.ingress.depth", func(time.Duration) (float64, bool) {
		return float64(f.queued), true
	}, telemetry.L("dir", dir))
	for _, c := range f.classes {
		c := c
		labels := []telemetry.Label{telemetry.L("dir", dir), telemetry.L("class", c.cfg.Name)}
		reg.Probe("fabric.class.bytes", func(time.Duration) (float64, bool) {
			return float64(c.bytes), true
		}, labels...)
		reg.Probe("fabric.class.drops", func(time.Duration) (float64, bool) {
			return float64(c.drops), true
		}, labels...)
	}
	for i, l := range f.links {
		i, l := i, l
		labels := []telemetry.Label{telemetry.L("dir", dir), telemetry.L("link", fmt.Sprintf("%d", i))}
		reg.Probe("fabric.link.bytes", func(time.Duration) (float64, bool) {
			return float64(l.SentBytes()), true
		}, labels...)
		// Pipe-fill gauges of the member's dispatcher: frames serialized but
		// still propagating right now (0 or 1 at a window of 1), and the
		// cumulative counts of overlapped sends (none at a window of 1) and
		// full-window stalls (every frame, there).
		reg.Probe("fabric.link.inflight", func(time.Duration) (float64, bool) {
			return float64(l.InFlight()), true
		}, labels...)
		reg.Probe("fabric.link.pipelined", func(time.Duration) (float64, bool) {
			return float64(f.linkStats[i].Pipelined), true
		}, labels...)
		reg.Probe("fabric.link.windowstalls", func(time.Duration) (float64, bool) {
			return float64(f.linkStats[i].WindowStalls), true
		}, labels...)
	}
}
