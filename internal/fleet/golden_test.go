package fleet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tenantOutcome is the per-tenant result surface compared between the
// sequential and parallel schedulers. Every field a fleet caller (E11/E14/
// E15) reads is represented.
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
func goldenConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed * 977))
	cfg := Config{
		Tenants:         3 + rng.Intn(4),
		OrdersPerTenant: 4 + rng.Intn(5),
	}
	cfg.System.Telemetry = &telemetry.Config{SamplePeriod: time.Duration(1+rng.Intn(4)) * time.Minute}
	cfg.System.Seed = seed
	cfg.System.VolumeBlocks = 256
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
	// load-then-measure shape, where same-instant tenant rounds are dense),
	// half free-run so the skewed-start path stays covered too.
	cfg.StartBarrier = rng.Intn(2) == 0
	return cfg
}

func runGoldenFleet(t *testing.T, cfg Config, workers int) ([]sim.TraceEntry, []tenantOutcome, time.Duration, sim.Stats) {
	t.Helper()
	cfg.Workers = workers
	f := New(cfg)
	f.Sys.Env.StartTrace()
	err := f.Run()
	outs := make([]tenantOutcome, len(f.Tenants))
	for i, tn := range f.Tenants {
		outs[i] = outcomeOf(tn)
	}
	if err != nil {
		t.Fatalf("fleet run (workers=%d): %v\noutcomes: %+v", workers, err, outs)
	}
	return f.Sys.Env.Trace(), outs, f.Sys.Env.Now(), f.Sys.Env.Stats()
}

// TestFleetGoldenTraceParallelMatchesSequential runs randomized fleet
// schedules twice — sequential scheduler vs parallel subgraph scheduler —
// and requires byte-identical (at, seq) execution traces and identical
// per-tenant outcomes. This is the fleet-level half of the determinism
// proof; internal/sim's golden test covers the kernel on 100 random worlds.
func TestFleetGoldenTraceParallelMatchesSequential(t *testing.T) {
	parallelSeen := false
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			seqTrace, seqOuts, seqEnd, _ := runGoldenFleet(t, cfg, 1)
			parTrace, parOuts, parEnd, stats := runGoldenFleet(t, cfg, 4)
			if stats.ParallelRounds > 0 {
				parallelSeen = true
			}
			if seqEnd != parEnd {
				t.Fatalf("end time diverged: sequential %v, parallel %v", seqEnd, parEnd)
			}
			if len(seqTrace) != len(parTrace) {
				t.Fatalf("trace length diverged: sequential %d, parallel %d", len(seqTrace), len(parTrace))
			}
			for i := range seqTrace {
				if seqTrace[i] != parTrace[i] {
					t.Fatalf("trace diverged at step %d: sequential %+v, parallel %+v",
						i, seqTrace[i], parTrace[i])
				}
			}
			if len(seqOuts) != len(parOuts) {
				t.Fatalf("tenant count diverged: %d vs %d", len(seqOuts), len(parOuts))
			}
			for i := range seqOuts {
				if seqOuts[i] != parOuts[i] {
					t.Fatalf("tenant %s outcome diverged:\nsequential: %+v\nparallel:   %+v",
						seqOuts[i].Namespace, seqOuts[i], parOuts[i])
				}
			}
		})
	}
	if !parallelSeen {
		t.Fatalf("no schedule ever formed a parallel round; the parallel path went untested")
	}
}
