// Package chaos is the seeded fault-schedule sweep: from a single int64
// seed it generates a randomized schedule of faults (link partitions, site
// cuts, failovers, failbacks, tenant joins/leaves, live reshards,
// journal-capacity squeezes) layered over randomized per-tenant OLTP
// workloads, executes the schedule on the deterministic simulation kernel
// through the declarative tenant surface, and asserts the shared
// internal/invariants checkers after every recovery point.
//
// Because the kernel is deterministic, a seed IS the repro: re-running
// `cmd/chaos -seed=N` replays the identical schedule, byte-identical fault
// log included. A failing seed is automatically shrunk (Shrink) to a
// minimal failing sub-schedule by prefix bisection plus greedy fault
// removal — both exact, not probabilistic, for the same reason.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// FaultKind enumerates the schedule generator's fault grammar.
type FaultKind int

const (
	// FaultLinkDown partitions one fabric member link for Dur, then heals.
	FaultLinkDown FaultKind = iota
	// FaultSiteCut partitions every inter-site link (forward and reverse)
	// for Dur, then heals them all — the full site isolation.
	FaultSiteCut
	// FaultFailover fails the tenant over to the backup site mid-workload
	// (no catch-up first: whatever is in flight is lost) and verifies the
	// recovered image is a consistent cut.
	FaultFailover
	// FaultFailback runs core.Failback for every failed-over group, at any
	// lane count, and checks each reverse group's round trip once it drains.
	FaultFailback
	// FaultJoin provisions a new tenant (its plan is already in
	// Schedule.Tenants) and starts its workload under everyone else's load.
	FaultJoin
	// FaultLeave drains and decommissions the tenant, then asserts zero
	// array residue.
	FaultLeave
	// FaultReshard declares a new JournalShards count on the tenant spec
	// and waits for the live migration to settle.
	FaultReshard
	// FaultSqueeze drops the tenant's journal capacity to Bytes for Dur so
	// the backlog overflows, asserts the fail-closed invariant, then
	// restores capacity and recovers by delta resync with zero loss
	// verified.
	FaultSqueeze
	// FaultLinkLoss degrades one fabric member link for Dur with a
	// transient loss/jitter burst (frames retransmit instead of being cut
	// off), then clears it — the degraded-but-alive sibling of
	// FaultLinkDown, exercising retransmission under pipelined dispatch.
	FaultLinkLoss
	// FaultPlant is the test-only violation hook: it corrupts the tenant's
	// backup sales volume behind the replication engine's back, so the next
	// checkpoint's consistency cut MUST collapse. Never generated — only
	// appended explicitly (Schedule.PlantCorruption) to prove the sweep
	// detects, reports, and shrinks real violations.
	FaultPlant
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "linkdown"
	case FaultSiteCut:
		return "sitecut"
	case FaultFailover:
		return "failover"
	case FaultFailback:
		return "failback"
	case FaultJoin:
		return "join"
	case FaultLeave:
		return "leave"
	case FaultReshard:
		return "reshard"
	case FaultSqueeze:
		return "squeeze"
	case FaultLinkLoss:
		return "linkloss"
	case FaultPlant:
		return "plant"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled fault. Seq is the fault's position in the
// originally generated schedule and survives shrinking, so a minimal
// failing subset still names the original faults.
type Fault struct {
	Seq    int
	At     time.Duration // sim time the driver fires it
	Kind   FaultKind
	Tenant int           // target tenant index; -1 for link-level faults
	Link   int           // member-link index (FaultLinkDown, FaultLinkLoss)
	Dur    time.Duration // partition / squeeze / loss-burst hold time
	Shards int           // reshard target shard count
	Bytes  int           // squeeze capacity in bytes
	Loss   float64       // loss probability during a FaultLinkLoss burst
	Jitter time.Duration // added propagation jitter during a FaultLinkLoss burst
}

func (f Fault) String() string {
	switch f.Kind {
	case FaultLinkDown:
		return fmt.Sprintf("#%02d @%v linkdown link=%d dur=%v", f.Seq, f.At, f.Link, f.Dur)
	case FaultLinkLoss:
		return fmt.Sprintf("#%02d @%v linkloss link=%d loss=%.2f jitter=%v dur=%v", f.Seq, f.At, f.Link, f.Loss, f.Jitter, f.Dur)
	case FaultSiteCut:
		return fmt.Sprintf("#%02d @%v sitecut dur=%v", f.Seq, f.At, f.Dur)
	case FaultReshard:
		return fmt.Sprintf("#%02d @%v reshard tenant=%d shards=%d", f.Seq, f.At, f.Tenant, f.Shards)
	case FaultSqueeze:
		return fmt.Sprintf("#%02d @%v squeeze tenant=%d cap=%dB dur=%v", f.Seq, f.At, f.Tenant, f.Bytes, f.Dur)
	case FaultFailback:
		return fmt.Sprintf("#%02d @%v failback", f.Seq, f.At)
	default:
		return fmt.Sprintf("#%02d @%v %s tenant=%d", f.Seq, f.At, f.Kind, f.Tenant)
	}
}

// TenantPlan is one tenant's randomized workload shape. JoinAt zero means
// the tenant is provisioned before the schedule starts; nonzero means a
// FaultJoin provisions it mid-run.
type TenantPlan struct {
	Orders       int
	ThinkTime    time.Duration
	ReadFraction float64
	Shards       int // initial JournalShards (1 = the single shared journal)
	JoinAt       time.Duration
}

func (t TenantPlan) String() string {
	s := fmt.Sprintf("orders=%d think=%v reads=%.1f shards=%d", t.Orders, t.ThinkTime, t.ReadFraction, t.Shards)
	if t.JoinAt > 0 {
		s += fmt.Sprintf(" join@%v", t.JoinAt)
	}
	return s
}

// Schedule is a complete, self-contained chaos scenario: replaying it (same
// seed, same fault subset) reproduces the run exactly.
type Schedule struct {
	Seed    int64
	Steps   string // generator preset name ("short", "medium", "long")
	Links   int    // fabric member links
	Tenants []TenantPlan
	Faults  []Fault
}

// WithFaults returns a copy of the schedule running only the given fault
// subset — the shrinker's replay unit. Tenant plans are kept whole: a fault
// whose join was removed simply finds its target absent and is skipped,
// deterministically.
func (s *Schedule) WithFaults(sub []Fault) *Schedule {
	out := *s
	out.Faults = make([]Fault, len(sub))
	copy(out.Faults, sub)
	return &out
}

// PlantCorruption adds the test-only FaultPlant to the schedule — the hook
// cmd/chaos -plant and the shrinker tests use to demonstrate a real
// violation being caught and minimized. The victim must be alive and not
// failed over when the plant fires (the checkers stop watching a tenant's
// backup after failover), so: prefer an initial-roster tenant no failover
// or leave fault touches and plant after every scheduled fault; when every
// initial tenant is targeted, pick the one targeted LATEST and slot the
// plant just before its first targeting fault.
func (s *Schedule) PlantCorruption() *Schedule {
	at := 100 * time.Millisecond
	seq := 0
	firstHit := make(map[int]time.Duration)
	for _, f := range s.Faults {
		if f.At+f.Dur >= at {
			at = f.At + f.Dur + 50*time.Millisecond
		}
		if f.Seq >= seq {
			seq = f.Seq + 1
		}
		if f.Kind == FaultFailover || f.Kind == FaultLeave {
			if _, hit := firstHit[f.Tenant]; !hit {
				firstHit[f.Tenant] = f.At
			}
		}
	}
	victim, untargeted := -1, false
	for i, t := range s.Tenants {
		if t.JoinAt != 0 {
			continue
		}
		if _, hit := firstHit[i]; !hit {
			victim, untargeted = i, true
			break
		}
		if victim < 0 || firstHit[i] > firstHit[victim] {
			victim = i
		}
	}
	plant := Fault{Seq: seq, Kind: FaultPlant, Tenant: victim}
	out := s.WithFaults(s.Faults)
	if untargeted {
		plant.At = at
		out.Faults = append(out.Faults, plant)
		return out
	}
	// Every initial tenant is eventually hit: fire just before the victim's
	// first targeting fault, keeping the list time-ordered. The generator's
	// inter-fault gaps are >= 15ms, so 1ms clearance cannot reorder.
	plant.At = firstHit[victim] - time.Millisecond
	for i, f := range out.Faults {
		if f.At > plant.At {
			out.Faults = append(out.Faults[:i], append([]Fault{plant}, out.Faults[i:]...)...)
			return out
		}
	}
	out.Faults = append(out.Faults, plant)
	return out
}

// String renders the schedule header — the first section of every repro log.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d steps=%s links=%d tenants=%d faults=%d\n",
		s.Seed, s.Steps, s.Links, len(s.Tenants), len(s.Faults))
	for i, t := range s.Tenants {
		fmt.Fprintf(&b, "  tenant %d: %s\n", i, t)
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "  fault %s\n", f)
	}
	return b.String()
}

// genConfig is one preset's generator envelope.
type genConfig struct {
	tenants    int // initial roster
	maxTenants int // roster cap (joins stop here)
	links      int
	faults     int // fault slots drawn (ineligible draws are dropped)
	minOrders  int
	maxOrders  int
}

var presets = map[string]genConfig{
	"short":  {tenants: 2, maxTenants: 4, links: 3, faults: 4, minOrders: 40, maxOrders: 120},
	"medium": {tenants: 3, maxTenants: 6, links: 4, faults: 10, minOrders: 80, maxOrders: 200},
	"long":   {tenants: 4, maxTenants: 8, links: 4, faults: 24, minOrders: 100, maxOrders: 320},
}

// Steps lists the generator preset names.
func Steps() []string { return []string{"short", "medium", "long"} }

// genTenant is the generator's model of a tenant's lifecycle state, kept in
// lockstep with the runner's eligibility rules so most drawn faults apply.
type genTenant struct {
	joined     bool
	left       bool
	failedOver bool
}

// Generate draws a schedule from the seed. All randomness comes from one
// rand.Source seeded with exactly `seed`, so the schedule is a pure
// function of (seed, steps).
func Generate(seed int64, steps string) (*Schedule, error) {
	cfg, ok := presets[steps]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown steps preset %q (want one of %s)", steps, strings.Join(Steps(), "/"))
	}
	rng := rand.New(rand.NewSource(seed))
	sch := &Schedule{Seed: seed, Steps: steps, Links: cfg.links}

	state := make([]genTenant, 0, cfg.maxTenants)
	newPlan := func(joinAt time.Duration) {
		sch.Tenants = append(sch.Tenants, TenantPlan{
			Orders:       cfg.minOrders + rng.Intn(cfg.maxOrders-cfg.minOrders+1),
			ThinkTime:    time.Duration(1+rng.Intn(6)) * time.Millisecond,
			ReadFraction: 0.1 * float64(rng.Intn(4)),
			Shards:       []int{1, 1, 2, 4}[rng.Intn(4)],
			JoinAt:       joinAt,
		})
		state = append(state, genTenant{joined: joinAt == 0})
	}
	for i := 0; i < cfg.tenants; i++ {
		newPlan(0)
	}

	// Tenants the generator may currently target with a tenant-level fault.
	eligible := func() []int {
		var out []int
		for i, t := range state {
			if t.joined && !t.left && !t.failedOver {
				out = append(out, i)
			}
		}
		return out
	}
	anyFailedOver := func() bool {
		for _, t := range state {
			if t.failedOver {
				return true
			}
		}
		return false
	}

	at := 30 * time.Millisecond
	for slot := 0; slot < cfg.faults; slot++ {
		at += time.Duration(15+rng.Intn(106)) * time.Millisecond
		// Weighted kind draw; redraw a bounded number of times when the
		// drawn kind has no eligible target so schedules stay dense.
		var f Fault
		ok := false
		for try := 0; try < 8 && !ok; try++ {
			f = Fault{Seq: len(sch.Faults), At: at, Tenant: -1}
			switch pick(rng, []weighted{
				{FaultLinkDown, 3}, {FaultSiteCut, 1}, {FaultFailover, 2},
				{FaultFailback, 1}, {FaultJoin, 1}, {FaultLeave, 1},
				{FaultReshard, 2}, {FaultSqueeze, 2}, {FaultLinkLoss, 2},
			}) {
			case FaultLinkDown:
				f.Kind = FaultLinkDown
				f.Link = rng.Intn(cfg.links)
				f.Dur = time.Duration(10+rng.Intn(111)) * time.Millisecond
				ok = true
			case FaultLinkLoss:
				// Always eligible, like linkdown: the burst needs no live
				// tenant, only a member link.
				f.Kind = FaultLinkLoss
				f.Link = rng.Intn(cfg.links)
				f.Loss = 0.05 * float64(1+rng.Intn(6)) // 5%..30%
				f.Jitter = time.Duration(rng.Intn(3)) * time.Millisecond
				f.Dur = time.Duration(30+rng.Intn(101)) * time.Millisecond
				ok = true
			case FaultSiteCut:
				f.Kind = FaultSiteCut
				f.Dur = time.Duration(10+rng.Intn(91)) * time.Millisecond
				ok = true
			case FaultFailover:
				if el := eligible(); len(el) > 0 {
					f.Kind = FaultFailover
					f.Tenant = el[rng.Intn(len(el))]
					state[f.Tenant].failedOver = true
					ok = true
				}
			case FaultFailback:
				if anyFailedOver() {
					f.Kind = FaultFailback
					ok = true
				}
			case FaultJoin:
				if len(state) < cfg.maxTenants {
					f.Kind = FaultJoin
					f.Tenant = len(state)
					newPlan(at)
					state[f.Tenant].joined = true
					ok = true
				}
			case FaultLeave:
				if el := eligible(); len(el) >= 2 {
					f.Kind = FaultLeave
					f.Tenant = el[rng.Intn(len(el))]
					state[f.Tenant].left = true
					ok = true
				}
			case FaultReshard:
				if el := eligible(); len(el) > 0 {
					f.Kind = FaultReshard
					f.Tenant = el[rng.Intn(len(el))]
					f.Shards = []int{1, 2, 4}[rng.Intn(3)]
					ok = true
				}
			case FaultSqueeze:
				if el := eligible(); len(el) > 0 {
					f.Kind = FaultSqueeze
					f.Tenant = el[rng.Intn(len(el))]
					f.Bytes = 2048 * (1 + rng.Intn(4))
					f.Dur = time.Duration(30+rng.Intn(71)) * time.Millisecond
					ok = true
				}
			}
		}
		if ok {
			sch.Faults = append(sch.Faults, f)
		}
	}
	return sch, nil
}

type weighted struct {
	kind   FaultKind
	weight int
}

func pick(rng *rand.Rand, choices []weighted) FaultKind {
	total := 0
	for _, c := range choices {
		total += c.weight
	}
	n := rng.Intn(total)
	for _, c := range choices {
		if n < c.weight {
			return c.kind
		}
		n -= c.weight
	}
	return choices[len(choices)-1].kind
}
