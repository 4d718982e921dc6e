package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tenantOutcome is the per-tenant result surface the replay tests compare
// between two runs of one seed. Every field a fleet caller (E11/E14/E15)
// reads is represented.
type tenantOutcome struct {
	Namespace       string
	OrdersPlaced    int64
	Verified        bool
	AnalyticsOrders int
	TimeToReady     time.Duration
	RecoveryTime    time.Duration
	FailoverAt      time.Duration
	JoinedAt        time.Duration
	Left            bool
	LeftAt          time.Duration
	ReclaimOK       bool
	Resharded       bool
	ReshardTime     time.Duration
	SalesTxns       int
	StockTxns       int
	Err             string
}

func outcomeOf(t *Tenant) tenantOutcome {
	o := tenantOutcome{
		Namespace:       t.Namespace,
		OrdersPlaced:    t.OrdersPlaced,
		Verified:        t.Verified,
		AnalyticsOrders: t.AnalyticsOrders,
		TimeToReady:     t.TimeToReady,
		RecoveryTime:    t.RecoveryTime,
		FailoverAt:      t.FailoverAt,
		JoinedAt:        t.JoinedAt,
		Left:            t.Left,
		LeftAt:          t.LeftAt,
		ReclaimOK:       t.ReclaimOK,
		Resharded:       t.Resharded,
		ReshardTime:     t.ReshardTime,
		SalesTxns:       t.Report.SalesTxns,
		StockTxns:       t.Report.StockTxns,
	}
	if t.Err != nil {
		o.Err = t.Err.Error()
	}
	return o
}

// goldenConfig derives a randomized fleet schedule from one seed: roster
// size, load, shard counts, and churn (joins, leaves, reshards) all vary.
// The link jitters, so the run also draws on the kernel's random source.
func goldenConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed * 977))
	cfg := Config{
		Tenants:         3 + rng.Intn(4),
		OrdersPerTenant: 4 + rng.Intn(5),
	}
	cfg.System.Telemetry = &telemetry.Config{SamplePeriod: time.Duration(1+rng.Intn(4)) * time.Minute}
	cfg.System.Seed = seed
	cfg.System.VolumeBlocks = 256
	cfg.System.Fabric.Links = []netlink.Config{{Propagation: 5 * time.Millisecond, BandwidthBps: 1e9, Jitter: time.Millisecond}}
	if rng.Intn(2) == 0 {
		cfg.JournalShards = 2
	}
	if rng.Intn(2) == 0 {
		cfg.Joins = append(cfg.Joins, JoinSpec{After: time.Duration(1+rng.Intn(5)) * time.Minute})
	}
	if rng.Intn(2) == 0 {
		cfg.Leaves = append(cfg.Leaves, LeaveSpec{Tenant: rng.Intn(cfg.Tenants), After: time.Duration(2+rng.Intn(5)) * time.Minute})
	}
	if rng.Intn(2) == 0 {
		cfg.Reshards = append(cfg.Reshards, ReshardSpec{
			Tenant: rng.Intn(cfg.Tenants),
			After:  time.Duration(1+rng.Intn(3)) * time.Minute,
			Shards: 1 + rng.Intn(3),
		})
	}
	// Half the schedules start OLTP at a fleet-wide barrier (E11's
	// load-then-measure shape), half free-run so the skewed-start path stays
	// covered too.
	cfg.StartBarrier = rng.Intn(2) == 0
	return cfg
}

// fleetRun is what one fleet run leaves for the replay tests to compare.
type fleetRun struct {
	trace []sim.TraceEntry
	outs  []tenantOutcome
	end   time.Duration
}

func runGoldenFleet(t *testing.T, cfg Config) fleetRun {
	t.Helper()
	f := New(cfg)
	f.Sys.Env.StartTrace()
	err := f.Run()
	r := fleetRun{trace: f.Sys.Env.Trace(), end: f.Sys.Env.Now()}
	for _, tn := range f.Tenants {
		r.outs = append(r.outs, outcomeOf(tn))
	}
	if err != nil {
		t.Fatalf("fleet run: %v\noutcomes: %+v", err, r.outs)
	}
	return r
}

// sameRun fails t when two fleet runs differ in end time, (at, seq) trace
// or any tenant's outcome; what names the two runs in the message.
func sameRun(t *testing.T, what [2]string, a, b fleetRun) {
	t.Helper()
	if a.end != b.end {
		t.Fatalf("end time diverged: %s %v, %s %v", what[0], a.end, what[1], b.end)
	}
	if !slices.Equal(a.trace, b.trace) {
		t.Fatalf("traces diverged: %s %d steps, %s %d", what[0], len(a.trace), what[1], len(b.trace))
	}
	for i := range a.outs {
		if a.outs[i] != b.outs[i] {
			t.Fatalf("tenant %s outcome diverged:\n%s: %+v\n%s: %+v",
				a.outs[i].Namespace, what[0], a.outs[i], what[1], b.outs[i])
		}
	}
}

// TestFleetGoldenTraceParallelMatchesSequential is the fleet-level replay
// test: each randomized schedule runs twice from one seed in one process,
// and the two runs must have byte-identical (at, seq) execution traces, end
// times and per-tenant outcomes. Map iteration order differs between the
// runs, so a result that leaned on it would show here; internal/sim's replay
// test covers the kernel on 100 random worlds.
func TestFleetGoldenTraceParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			sameRun(t, [2]string{"first", "second"}, runGoldenFleet(t, cfg), runGoldenFleet(t, cfg))
		})
	}
}

// tenantOfProc labels a fleet tenant's own process with its namespace.
func tenantOfProc(process string) string {
	if ns, ok := strings.CutPrefix(process, "tenant:"); ok {
		return ns
	}
	return ""
}

// profiledGoldenFleet is runGoldenFleet with the sim-time profile on; it also
// returns the encoded profile.
func profiledGoldenFleet(t *testing.T, cfg Config) (fleetRun, []byte) {
	t.Helper()
	f := New(cfg)
	f.Sys.Env.StartTrace()
	f.Sys.Env.StartSimProfile(tenantOfProc)
	err := f.Run()
	r := fleetRun{trace: f.Sys.Env.Trace(), end: f.Sys.Env.Now()}
	for _, tn := range f.Tenants {
		r.outs = append(r.outs, outcomeOf(tn))
	}
	if err != nil {
		t.Fatalf("fleet run: %v\noutcomes: %+v", err, r.outs)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteSimProfile(&buf, f.Sys.Env.SimProfile()); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// With the sim-time profile on, a randomized fleet schedule runs exactly as
// it does with it off — same (at, seq) trace, end time and outcomes — and two
// runs of one seed encode byte-identical profiles.
func TestSimProfileKeepsTheGoldenTrace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			on, prof := profiledGoldenFleet(t, cfg)
			sameRun(t, [2]string{"profile off", "profile on"}, runGoldenFleet(t, cfg), on)
			if _, again := profiledGoldenFleet(t, cfg); !bytes.Equal(prof, again) {
				t.Fatal("two runs of one seed encoded different sim-time profiles")
			}
		})
	}
}
