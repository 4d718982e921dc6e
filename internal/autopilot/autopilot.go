// Package autopilot closes the loop from observed RPO to action. A single
// control process wakes on a fixed sim-time period, reads the telemetry
// plane's probed series (never the engines' internal state directly — the
// controller sees exactly what an operator's dashboard sees), and drives
// three effectors toward the declared platform.SLOClass targets:
//
//   - reshard-on-SLO: a tenant whose windowed worst RPO sits above its
//     class target gets another drain lane (Spec.JournalShards bumped; the
//     tenant reconcile loop performs the epoch-bounded live reshard); a
//     tenant comfortably below target gives a lane back. A hysteresis band
//     plus a per-tenant cooldown keeps the loop from thrashing.
//   - admission: when a protected class (RPOTarget > 0) breaches, the
//     shedable classes below it in AdmissionPriority are derated — their
//     fabric token-bucket rate halved per period down to a floor — and
//     restored by doubling once every protected class is comfortably
//     healthy again.
//   - placement: new drain lanes land on the fabric member link LeastLoaded
//     picks (recent placements, then utilization, then bytes sent) instead
//     of the dispatchers' any-link choice.
//
// The loop's tuning (period, window, cooldown, both hysteresis bands, the
// derate floor) is fixed: package constants set for E17's diurnal scenario,
// the one workload the autopilot runs in.
//
// Every action is appended to a decision log in simulation order; the log is
// byte-identical on every run of a seed, which is how the autopilot's own
// behaviour is regression-tested (see TestAutopilotDeterminism).
package autopilot

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The control loop's tuning: the values E17's diurnal scenario drives, with
// that scenario's reasons.
const (
	// period is the evaluation interval in sim time. Each tick reads the
	// telemetry registry and actuates at most one reshard step per tenant and
	// one admission step per shedable class.
	period = 250 * time.Millisecond
	// window is the lookback over the probed RPO series for the windowed
	// worst value, two periods.
	window = 2 * period
	// cooldown is the minimum sim time between reshard actuations on one
	// tenant, so a migration's own disruption is not read as a fresh signal.
	cooldown = 1500 * time.Millisecond
	// The two hysteresis bands, as fractions of a class's RPOTarget. Diurnal
	// edges are steep, so the loop reacts early (a lane is added above 35% of
	// target, bulk classes are derated above 50%) and reclaims only from deep
	// quiet (a lane is given back below 10%, restore probes start once every
	// protected class is below 25%). Anywhere between holds: the wide gap is
	// what prevents flapping.
	scaleUpFraction   = 0.35
	scaleDownFraction = 0.10
	derateFraction    = 0.50
	restoreFraction   = 0.25
	// minRateBps floors the derated bulk rate so shed classes starve but never
	// deadlock. It sits high enough to bound the bulk backlog that builds
	// while derated: giant deferred epochs would stall the shared backup
	// controller when restored.
	minRateBps = 256 << 10
)

// demandDecay is the per-tick factor on the remembered peak throughput of a
// shedable class (half-life ~23 ticks).
const demandDecay = 0.97

// restorePatience is how many consecutive all-healthy ticks a shedable class
// must see before each restore step. Restoring is a probe — giving rate back
// can re-breach the protected classes — so it is paced far slower than
// derating, which acts on the first breaching tick and then once per window.
const restorePatience = 4

// Decision is one autopilot action, recorded in simulation order.
type Decision struct {
	At     time.Duration
	Tenant string // namespace, or the fabric class for admission actions
	Action string // reshard-up | reshard-down | derate | restore | place-lane
	Detail string
}

// Autopilot owns the control process. Construct with New, arm with Start,
// disarm with Stop; read the audit trail with Decisions or FormatLog.
type Autopilot struct {
	sys *core.System

	stop *sim.Event

	// placer chooses the fabric member link for each new drain lane; every
	// tick feeds it the members' utilization, and every answer it gives is
	// recorded in the decision log (PlaceLane).
	placer LeastLoaded

	decisions []Decision

	lastReshard map[string]time.Duration // namespace → last actuation

	// classes is the admission state of each shedable fabric class.
	classes map[string]admission
}

// admission is what the autopilot keeps of one shedable fabric class.
type admission struct {
	capBps    float64 // current cap; 0 = not derated (uncapped)
	demandBps float64 // peak measured throughput of the class
	lastBytes int64   // ClassStats.Bytes at the previous tick
	healthy   int     // consecutive all-healthy ticks while capped
	// lastDerate is when the class was last halved; the next halving waits
	// for the RPO window to hold only samples taken under it.
	lastDerate time.Duration
}

// New wires an autopilot to the system. The system must have the telemetry
// plane enabled (Config.Telemetry) — the autopilot senses only through it.
// The placement policy is installed immediately so lanes provisioned before
// Start still land where the policy says; the control process itself does
// not run until Start.
func New(sys *core.System) (*Autopilot, error) {
	if sys.Telemetry == nil {
		return nil, fmt.Errorf("autopilot: system has no telemetry plane (set core.Config.Telemetry)")
	}
	a := &Autopilot{
		sys:         sys,
		stop:        sys.Env.NewEvent(),
		lastReshard: make(map[string]time.Duration),
		classes:     make(map[string]admission),
	}
	sys.SetPlacement(a)
	return a, nil
}

// PlaceLane implements core.PlacementPolicy: the placer's answer, landing in
// the decision log. Placement runs inside reconcile steps, which the kernel
// runs one at a time, so appending here is deterministic.
func (a *Autopilot) PlaceLane(namespace string, lane int, f *fabric.Fabric) int {
	li := a.placer.pick(f)
	if li >= 0 {
		a.record(a.sys.Env.Now(), namespace, "place-lane", fmt.Sprintf("lane %d -> link %d", lane, li))
	}
	return li
}

// Start launches the control process: one tick every period until Stop.
func (a *Autopilot) Start() {
	a.sys.Env.Process("autopilot", func(p *sim.Proc) {
		for {
			if p.WaitTimeout(a.stop, period) {
				return
			}
			a.tick(p)
		}
	})
}

// Stop disarms the control loop. Call it before draining the event queue to
// quiescence (sim.Env.Run(0)) — an armed autopilot re-schedules itself
// forever. Safe to call more than once, and safe outside any process.
func (a *Autopilot) Stop() { a.stop.Trigger() }

// Decisions returns the audit trail in simulation order.
func (a *Autopilot) Decisions() []Decision { return a.decisions }

// FormatLog renders the decision log one line per action — the byte-exact
// artifact the determinism test compares between two runs of one seed.
func (a *Autopilot) FormatLog() string {
	var b strings.Builder
	for _, d := range a.decisions {
		fmt.Fprintf(&b, "%-12s %-14s %-12s %s\n", d.At, d.Tenant, d.Action, d.Detail)
	}
	return b.String()
}

func (a *Autopilot) record(at time.Duration, tenant, action, detail string) {
	a.decisions = append(a.decisions, Decision{At: at, Tenant: tenant, Action: action, Detail: detail})
}

// shardTarget is the pure hysteresis kernel: the desired lane count for a
// class given the current count and the windowed worst RPO. Above up×target
// grow by one (bounded by MaxShards); below down×target shrink by one
// (bounded by MinShards); inside the band hold. A class without an RPO SLO
// never moves.
func shardTarget(cls platform.SLOClass, up, down float64, cur int, winRPO time.Duration) int {
	if cls.RPOTarget <= 0 {
		return cur
	}
	t := float64(cls.RPOTarget)
	r := float64(winRPO)
	switch {
	case r > up*t && cur < cls.MaxShards:
		return cur + 1
	case r < down*t && cur > cls.MinShards:
		return cur - 1
	}
	return cur
}

// windowRPO returns the worst probed RPO for the namespace over the
// lookback window, and whether any sample exists. The probe records RPO as
// float64 nanoseconds.
func (a *Autopilot) windowRPO(ns string, now time.Duration) (time.Duration, bool) {
	w := a.sys.Telemetry.Series("rpo", telemetry.L("tenant", ns)).Window(max(0, now-window), now)
	return time.Duration(w.Max()), w.Len() > 0
}

// tick is one evaluation: sense every SLO-classed tenant, actuate reshard
// steps, then run the admission sweep. All iteration is in sorted order
// (the API server's List is namespace-sorted, SLOClasses is name-sorted) so
// the decision log is a pure function of the simulation schedule.
func (a *Autopilot) tick(p *sim.Proc) {
	now := p.Now()
	// Feed the placement policy its periodic utilization observation first,
	// so a reshard actuated this very tick places lanes on fresh data.
	a.placer.Observe(a.sys.Fabric.Forward)
	// worstFrac[class] = max over the class's tenants of winRPO/target.
	worstFrac := make(map[string]float64)
	for _, obj := range a.sys.Main.API.List(p, platform.KindTenant, "") {
		tn := obj.(*platform.Tenant)
		ns := tn.Spec.Namespace
		cls, ok := a.sys.SLOClassFor(tn.Spec.SLOClass)
		if !ok {
			continue // no SLO declared: not the autopilot's to manage
		}
		winRPO, sampled := a.windowRPO(ns, now)
		if !sampled {
			continue // no evidence yet (still provisioning, or detached)
		}
		if cls.RPOTarget > 0 {
			if frac := float64(winRPO) / float64(cls.RPOTarget); frac > worstFrac[cls.Name] {
				worstFrac[cls.Name] = frac
			}
		}
		a.reshardStep(p, now, ns, cls, winRPO)
	}
	a.admissionStep(now, worstFrac)
}

// reshardStep actuates at most one lane step for one tenant: it screens for
// cooldown and for states where a reshard cannot (or must not) run, asks
// the hysteresis kernel for the target, and declares it on the spec. The
// declaration is non-blocking — the tenant reconcile loop performs the live
// migration while the autopilot moves on.
func (a *Autopilot) reshardStep(p *sim.Proc, now time.Duration, ns string, cls platform.SLOClass, winRPO time.Duration) {
	if last, ok := a.lastReshard[ns]; ok && now-last < cooldown {
		return
	}
	gs := a.sys.Groups(ns)
	if len(gs) != 1 {
		return // no engine configured yet: nothing to scale
	}
	g := gs[0]
	if g.FailedOver() || g.Stopped() {
		return
	}
	if g.Resharding() {
		return // an open migration window defers the step
	}
	cur := g.Lanes()
	target := shardTarget(cls, scaleUpFraction, scaleDownFraction, cur, winRPO)
	if target == cur {
		return
	}
	// A low RPO while admission is actively shedding is borrowed headroom,
	// not surplus capacity: reclaiming lanes now would re-breach the moment
	// the shed class is restored, and the two effectors would chase each
	// other. Lanes are only given back once every cap has been lifted.
	for _, st := range a.classes {
		if target < cur && st.capBps > 0 {
			return
		}
	}
	err := a.sys.UpdateTenantSpec(p, ns, func(s *platform.TenantSpec) {
		s.JournalShards = target
	})
	if err != nil {
		// Lost a race (tenant decommissioned, spec conflict storm): log
		// and let the next tick re-evaluate from fresh observations.
		a.record(now, ns, "reshard-skip", err.Error())
		return
	}
	action := "reshard-up"
	if target < cur {
		action = "reshard-down"
	}
	a.record(now, ns, action, fmt.Sprintf("lanes %d->%d (win rpo %s, target %s)", cur, target, winRPO, cls.RPOTarget))
	a.lastReshard[ns] = now
}

// admissionStep derates or restores every shedable class (RPOTarget == 0)
// against the health of the protected classes above it in priority.
// Throughput is measured from the fabric's own class byte counters — the
// cap halves from observed demand, not from a guess.
func (a *Autopilot) admissionStep(now time.Duration, worstFrac map[string]float64) {
	fwd := a.sys.Fabric.Forward
	classes := a.sys.SLOClasses()
	for _, sc := range classes {
		if sc.RPOTarget > 0 {
			continue // protected, never shed
		}
		fc := sc.Name // tenants without a QoSClass ride the class named like their SLO class
		st := a.classes[fc]
		// Measured throughput this period for the shedable class; the peak
		// is tracked continuously so the first derate halves from observed
		// demand and a restore knows when the class is fully back.
		bytes := fwd.ClassStats(fc).Bytes
		deltaBps := float64(bytes-st.lastBytes) / period.Seconds()
		st.lastBytes = bytes
		// Demand is a decaying peak of observed throughput: it must survive
		// the lumpiness of batched transfers (an instantaneous delta can be
		// zero mid-batch), but a stale burst must not pin the class capped
		// forever — full restore requires cap×2 to reach demand.
		st.demandBps = max(deltaBps, st.demandBps*demandDecay)

		breach, allHealthy := false, true
		for _, pc := range classes {
			if pc.RPOTarget <= 0 || pc.AdmissionPriority <= sc.AdmissionPriority {
				continue
			}
			if worstFrac[pc.Name] > derateFraction {
				breach = true
			}
			if worstFrac[pc.Name] >= restoreFraction {
				allHealthy = false
			}
		}

		cap, capped := st.capBps, st.capBps > 0
		if allHealthy {
			st.healthy++
		} else {
			st.healthy = 0
		}
		switch {
		case breach:
			st.healthy = 0
			next := cap / 2
			if !capped {
				next = st.demandBps / 2
			}
			if next < minRateBps {
				next = minRateBps
			}
			if capped && next == cap {
				break // already at the floor: nothing new to declare
			}
			if capped && now-st.lastDerate <= window {
				// The window still holds samples from before the last
				// halving: its effect is not observable yet, and halving again
				// on the same evidence drives the cap far below the class's
				// arrival rate — the backlog that builds then bursts out at
				// the restore and breaches the protected class all over again.
				break
			}
			if fwd.SetClassRate(fc, next) {
				st.lastDerate = now
				st.capBps = next
				a.record(now, fc, "derate", fmt.Sprintf("rate -> %.0f B/s (demand %.0f B/s)", next, deltaBps))
			}
		case capped && allHealthy:
			// Each restore step is a probe; demand patience between steps so
			// the protected classes' probed series can absorb the last one.
			if st.healthy < restorePatience {
				break
			}
			st.healthy = 0
			next := cap * 2
			if next >= st.demandBps {
				// Fully restored: lift the cap and forget the episode.
				if fwd.SetClassRate(fc, 0) {
					a.record(now, fc, "restore", fmt.Sprintf("rate -> uncapped (was capped at %.0f B/s)", cap))
				}
				st.capBps = 0
			} else if fwd.SetClassRate(fc, next) {
				st.capBps = next
				a.record(now, fc, "restore", fmt.Sprintf("rate -> %.0f B/s", next))
			}
		}
		a.classes[fc] = st
	}
}
