package experiments

import (
	"fmt"
	"time"

	"repro/internal/autopilot"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// E17 scenario scale. Two gold tenants carry a diurnal ingest curve — a
// quiet night rate, a peak that a single drain lane cannot absorb, then
// night again — while two bulk tenants push constant best-effort streams
// through the same four-link fabric. The gold SLO class declares an RPO
// target; the bulk class declares none and sits below gold in admission
// priority. Static provisioning (1 lane, no admission control) must breach
// the gold target at peak; the autopilot — repairing purely from the probed
// RPO series — must hold it by resharding gold up, derating bulk ingress,
// placing the added lanes, and giving everything back at night.
//
// The geometry makes all three effectors necessary: four tenants on four
// member links means every link is claimed, so each gold tenant's second
// lane can only land on a bulk-occupied member — placement must find the
// one whose traffic admission has just derated away, and without the
// derate the shared member cannot carry the lane's share of the peak.
const (
	e17Golds      = 2
	e17Bulks      = 2
	e17GoldVols   = 4
	e17BulkVols   = 4
	e17Links      = 4
	e17BlockSize  = 16 << 10
	e17GoldTarget = 1 * time.Second

	// Diurnal curve (offsets from the shared workload start). The peak rate
	// is chosen above what one drain lane sustains (~3.9 MB/s on this fabric
	// at this block size) so the static run must breach, while two lanes
	// hold it with margin once bulk is shed off the shared member.
	e17NightRate = 0.40e6 // B/s per gold tenant off-peak
	e17PeakRate  = 4.5e6  // B/s per gold tenant at peak
	e17BulkRate  = 1.2e6  // B/s per bulk tenant, constant day and night
	e17PeakFrom  = 5 * time.Second
	e17PeakTo    = 25 * time.Second
	e17WorkEnd   = 55 * time.Second

	// Steady-state measurement windows: the autopilot gets an adaptation
	// grace after each phase edge before compliance is judged.
	e17PeakGrace  = 8 * time.Second
	e17NightGrace = 6 * time.Second
)

// e17Outcome is what one E17 run (static or autopiloted) measures.
type e17Outcome struct {
	worstPeakRPO  time.Duration // worst gold RPO probe in the steady-peak window
	worstNightRPO time.Duration // worst gold RPO probe in the steady-night window
	goldBytes     int64         // gold-class bytes through the forward fabric
	bulkBytes     int64         // bulk-class bytes through the forward fabric
	finalLanes    []int         // per gold tenant, drain lanes at the end
}

// E17Autopilot runs the closed-loop experiment: the static world first (the
// violation baseline), then the identical world with the autopilot armed.
// It fails unless the static run breaches the gold target in steady state
// and the autopilot holds every declared target; it returns the armed run's
// autopilot, whose decision log is the experiment's audit trail.
func E17Autopilot(seed int64) (*Table, *autopilot.Autopilot, error) {
	static, _, _, err := e17Run(seed, false, false)
	if err != nil {
		return nil, nil, fmt.Errorf("E17 static: %w", err)
	}
	auto, ap, _, err := e17Run(seed, true, false)
	if err != nil {
		return nil, nil, fmt.Errorf("E17 autopilot: %w", err)
	}
	staticViolates := static.worstPeakRPO > e17GoldTarget
	autoHolds := auto.worstPeakRPO <= e17GoldTarget && auto.worstNightRPO <= e17GoldTarget
	if !staticViolates || !autoHolds {
		return nil, nil, fmt.Errorf("E17: acceptance shape broke: staticViolates=%v autoHolds=%v", staticViolates, autoHolds)
	}
	n := map[string]int{}
	for _, d := range ap.Decisions() {
		n[d.Action]++
	}
	t := NewTable("E17: SLO autopilot — closed loop from probed RPO to reshard, admission, placement",
		"metric", "static", "autopilot")
	t.AddRow("gold RPO target", e17GoldTarget, e17GoldTarget)
	t.AddRow("worst gold RPO, steady peak", static.worstPeakRPO, auto.worstPeakRPO)
	t.AddRow("worst gold RPO, steady night", static.worstNightRPO, auto.worstNightRPO)
	t.AddRow("gold lanes at end", static.finalLanes, auto.finalLanes)
	t.AddRow("gold bytes drained", static.goldBytes, auto.goldBytes)
	t.AddRow("bulk bytes drained", static.bulkBytes, auto.bulkBytes)
	t.AddRow("static violates target", staticViolates, "")
	t.AddRow("autopilot holds every target", "", autoHolds)
	t.AddRow("decisions: reshard up/down", "", pair{n["reshard-up"], n["reshard-down"]})
	t.AddRow("decisions: derate/restore", "", pair{n["derate"], n["restore"]})
	t.AddRow("decisions: lane placements", "", n["place-lane"])
	t.AddNote("shape: the diurnal peak breaches the gold target under static provisioning; the autopilot, sensing only the probed RPO series, holds every declared target by resharding gold, derating bulk admission, and placing lanes — then hands resources back at night")
	return t, ap, nil
}

// e17System assembles the shared world: four fabric member links, gold and
// bulk QoS classes at equal DRR weight (so only admission control can tilt
// them), and the two SLO policy classes the autopilot enforces.
func e17System(seed int64) *core.System {
	return core.NewSystem(core.Config{
		Seed: seed,
		Fabric: fabric.Config{
			Links: thinLinks(e17Links),
			Classes: []fabric.ClassConfig{
				{Name: "gold", Weight: 1},
				{Name: "bulk", Weight: 1},
			},
		},
		SLOClasses: []platform.SLOClass{
			{Name: "gold", RPOTarget: e17GoldTarget, MinShards: 1, MaxShards: 2, AdmissionPriority: 10},
			{Name: "bulk", MinShards: 1, MaxShards: 1, AdmissionPriority: 0},
		},
		Telemetry: &telemetry.Config{SamplePeriod: 50 * time.Millisecond},
		// Every volume has its own service queue: the fleet's service model.
		Storage:      storage.Config{BlockSize: e17BlockSize, IsolatedVolumes: true},
		VolumeBlocks: 8192,
	})
}

// e17Rate is the diurnal ingest curve in bytes per second.
func e17Rate(gold bool, sinceStart time.Duration) float64 {
	if !gold {
		return e17BulkRate
	}
	if sinceStart >= e17PeakFrom && sinceStart < e17PeakTo {
		return e17PeakRate
	}
	return e17NightRate
}

type e17Tenant struct {
	ns   string
	gold bool
	vols []*storage.Volume
	done *sim.Event
}

// e17Run executes one world (static or autopiloted). With trace set, the
// kernel records its (at, seq) step order for the determinism golden; the
// system is returned so the caller can read it.
func e17Run(seed int64, auto, trace bool) (e17Outcome, *autopilot.Autopilot, *core.System, error) {
	sys := e17System(seed)
	if trace {
		sys.Env.StartTrace()
	}
	var run e17Outcome
	var runErr error
	fail := func(err error) {
		if runErr == nil && err != nil {
			runErr = err
		}
	}

	var ap *autopilot.Autopilot
	if auto {
		var err error
		if ap, err = autopilot.New(sys); err != nil {
			return run, nil, sys, err
		}
		ap.Start()
	}

	var tenants []*e17Tenant
	for i := 0; i < e17Golds; i++ {
		tenants = append(tenants, &e17Tenant{
			ns: fmt.Sprintf("gold-%d", i), gold: true, done: sys.Env.NewEvent(),
		})
	}
	for i := 0; i < e17Bulks; i++ {
		tenants = append(tenants, &e17Tenant{
			ns: fmt.Sprintf("bulk-%d", i), done: sys.Env.NewEvent(),
		})
	}

	ready := sys.Env.NewEvent()
	var wlStart time.Duration

	// Driver: declare every tenant on one journal shard under its SLO class,
	// wait for readiness, resolve the write targets, release the writers.
	sys.Env.Process("driver", func(p *sim.Proc) {
		for _, t := range tenants {
			nvols, slo := e17GoldVols, "gold"
			if !t.gold {
				nvols, slo = e17BulkVols, "bulk"
			}
			var err error
			if t.vols, _, err = provisionDataTenant(p, sys, t.ns, nvols, 1, slo); err != nil {
				fail(fmt.Errorf("provision %s: %w", t.ns, err))
				return
			}
		}
		wlStart = p.Now()
		ready.Trigger()
	})

	// Writers: one per tenant, deadline-paced against the diurnal curve.
	for _, t := range tenants {
		t := t
		sys.Env.Process("writer:"+t.ns, func(p *sim.Proc) {
			p.Wait(ready)
			if runErr != nil {
				t.done.Trigger()
				return
			}
			start := p.Now()
			buf := make([]byte, e17BlockSize)
			next := start
			for i := 0; ; i++ {
				if d := next - p.Now(); d > 0 {
					p.Sleep(d)
				}
				since := p.Now() - start
				if since >= e17WorkEnd {
					break
				}
				v := t.vols[i%len(t.vols)]
				if _, err := v.Write(p, int64(i/len(t.vols)), buf); err != nil {
					fail(fmt.Errorf("%s write %d: %w", t.ns, i, err))
					break
				}
				next += time.Duration(float64(e17BlockSize) / e17Rate(t.gold, since) * float64(time.Second))
			}
			t.done.Trigger()
		})
	}

	// Monitor: once every writer retires, disarm the autopilot so the
	// final drain can run the queue empty.
	sys.Env.Process("monitor", func(p *sim.Proc) {
		for _, t := range tenants {
			p.Wait(t.done)
		}
		if ap != nil {
			ap.Stop()
		}
	})

	sys.Env.Run(0)
	quiesce(sys, 0)
	if runErr != nil {
		return run, ap, sys, runErr
	}

	// Compliance readings come from the same probed series the autopilot
	// steers by.
	peakFrom, peakTo := wlStart+e17PeakFrom+e17PeakGrace, wlStart+e17PeakTo
	nightFrom, nightTo := wlStart+e17PeakTo+e17NightGrace, wlStart+e17WorkEnd
	for _, t := range tenants {
		if !t.gold {
			continue
		}
		rpo := sys.Telemetry.Series("rpo", telemetry.L("tenant", t.ns))
		run.worstPeakRPO = max(run.worstPeakRPO, time.Duration(rpo.Window(peakFrom, peakTo).Max()))
		run.worstNightRPO = max(run.worstNightRPO, time.Duration(rpo.Window(nightFrom, nightTo).Max()))
		if gs := sys.Groups(t.ns); len(gs) == 1 {
			run.finalLanes = append(run.finalLanes, gs[0].Lanes())
		} else {
			run.finalLanes = append(run.finalLanes, 0)
		}
	}
	run.goldBytes = sys.Fabric.Forward.ClassStats("gold").Bytes
	run.bulkBytes = sys.Fabric.Forward.ClassStats("bulk").Bytes
	return run, ap, sys, nil
}
