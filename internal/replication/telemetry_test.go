package replication

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestRPOProbeReadsGroupRPO pins the contract every experiment's RPO figure
// rests on: the "rpo" probe's sample at grid instant t is Group.RPO(t) of the
// simulation as it stands after Env.Run(t), under lane commit (one lane) and
// under the epoch barrier (two), and the timeline ends at Failover.
func TestRPOProbeReadsGroupRPO(t *testing.T) {
	// The probe observes the instant being left, before the steps due at a
	// grid instant run; Env.Run(t) runs them. The period is kept off every
	// microsecond so no step lands on a sample instant (checked below
	// against the kernel trace) and both readings describe the same state.
	const (
		period   = time.Millisecond + 7*time.Nanosecond
		writes   = 60
		gap      = 700 * time.Microsecond
		failover = 41500 * time.Microsecond
		horizon  = 60 * time.Millisecond
	)
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			r := newShardedRig(t, lanes, 4, netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}, Config{BatchMax: 4})
			reg := telemetry.New(r.env, telemetry.Config{SamplePeriod: period})
			r.g.Instrument(reg, "cg")
			r.g.Start()
			r.env.StartTrace()
			r.env.Process("writer", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					r.seqWrite(p, t, i)
					p.Sleep(gap)
				}
			})
			r.env.Process("disaster", func(p *sim.Proc) {
				p.Sleep(failover)
				if _, err := r.g.Failover(); err != nil {
					t.Error(err)
				}
			})

			want := map[time.Duration]float64{}
			var nonzero int
			for at := period; at <= horizon; at += period {
				r.env.Run(at)
				if r.g.Stopped() {
					continue
				}
				want[at] = float64(r.g.RPO(at))
				if want[at] > 0 {
					nonzero++
				}
			}
			r.env.Run(0)

			for _, st := range r.env.Trace() {
				if st.At > 0 && st.At%period == 0 {
					t.Fatalf("a step at %v lands on the sample grid; pick another period", st.At)
				}
			}
			pts := reg.Series("rpo", telemetry.L("tenant", "cg")).Points()
			if len(pts) != len(want) {
				t.Fatalf("%d samples, want one per grid instant before the failover (%d)", len(pts), len(want))
			}
			for _, pt := range pts {
				if pt.At > failover {
					t.Fatalf("sample at %v after the failover at %v", pt.At, failover)
				}
				if w, ok := want[pt.At]; !ok || pt.Value != w {
					t.Fatalf("sample at %v = %v, Group.RPO after Run = %v (on grid: %v)",
						pt.At, time.Duration(pt.Value), time.Duration(w), ok)
				}
			}
			if nonzero < len(want)/2 {
				t.Fatalf("only %d of %d samples saw a lag: scenario degenerate", nonzero, len(want))
			}
			if got := r.g.EpochCommits() > 0; got != (lanes > 1) {
				t.Fatalf("lanes=%d: barrier rule in force = %v", lanes, got)
			}
		})
	}
}
