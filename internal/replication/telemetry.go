package replication

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Instrument registers the engine's telemetry probes: the tenant's RPO and
// drain backlog, sampled on the virtual clock. Probes self-gate — they stop
// reporting once the engine stops, ending the tenant's timeline instead of
// recording a frozen exposure forever. What only the barrier rule has is
// registered when it takes force (instrumentBarrier). No-op when reg is nil.
func (g *Group) Instrument(reg *telemetry.Registry, tenant string) {
	if reg == nil {
		return
	}
	g.tel, g.tenant = reg, tenant
	live := func() bool { return !g.stopped }
	reg.Probe("rpo", func(now time.Duration) (float64, bool) {
		return float64(g.RPO(now)), live()
	}, telemetry.L("tenant", tenant))
	reg.Probe("backlog.records", func(time.Duration) (float64, bool) {
		return float64(g.Backlog()), live()
	}, telemetry.L("tenant", tenant))
	if g.coordinating {
		g.instrumentBarrier()
	}
}

// instrumentBarrier registers the barrier rule's telemetry: per-lane staged
// bytes and shard backlog, and the epoch seal-to-commit latency histogram
// (spans over epoch drains and reshard windows are emitted where they
// happen). Lanes added by a later Reshard register their probes on
// creation; retiring lanes stop reporting once reaped.
func (g *Group) instrumentBarrier() {
	if g.tel == nil {
		return
	}
	if g.laneGen == nil {
		g.laneGen = make(map[int]int)
		g.epochLatency = g.tel.Histogram("epoch.commit.latency", telemetry.L("tenant", g.tenant))
	}
	for _, l := range g.lanes {
		g.instrumentLane(l)
	}
}

// instrumentLane registers one lane's probes. A shrink-then-grow reshard
// sequence can re-create a lane index whose retired predecessor already
// owns the probe key, so re-registrations carry a generation suffix — each
// lane object gets its own timeline.
func (g *Group) instrumentLane(l *drainLane) {
	if g.tel == nil || l.probed {
		return
	}
	l.probed = true
	gen := g.laneGen[l.idx]
	g.laneGen[l.idx] = gen + 1
	laneLabel := strconv.Itoa(l.idx)
	if gen > 0 {
		laneLabel += "#" + strconv.Itoa(gen)
	}
	labels := []telemetry.Label{
		telemetry.L("tenant", g.tenant),
		telemetry.L("lane", laneLabel),
	}
	live := func() bool { return !g.stopped && (l.retire == nil || !l.retire.Triggered()) }
	g.tel.Probe("lane.staged.bytes", func(time.Duration) (float64, bool) {
		return float64(len(l.staged) * l.journal.RecordBytes()), live()
	}, labels...)
	g.tel.Probe("lane.pending.records", func(time.Duration) (float64, bool) {
		return float64(l.journal.Pending() + l.inflight), live()
	}, labels...)
}
