package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// E13 scenario scale. One write-heavy tenant with many volumes in a single
// consistency group, on a deliberately thin multi-link fabric, so the drain
// — not the array — is the throughput cap. 16 volumes hash evenly onto
// 2/4/8 shards, so the scaling measured is the lanes', not an artifact of
// placement skew.
const (
	e13Namespace = "shard-bench"
	e13Volumes   = 16
	e13Links     = 4 // fabric member links; lanes beyond this share links
)

// ShardedThroughputResult is one shard count's outcome: how fast the
// tenant's writes reached the backup site, and whether a mid-run failover
// still yielded a consistent cross-volume cut.
type ShardedThroughputResult struct {
	Shards int
	Writes int

	// Throughput run: all writes issued, then drained to empty.
	Bytes          int64         // payload bytes committed at the backup
	DrainTime      time.Duration // first write -> backup fully caught up
	ThroughputMBps float64
	Speedup        float64 // vs the 1-shard row (first row if 1 was not swept)
	EpochCommits   int64   // consistency cuts declared (sharded engine only)

	// Failover run: the pair is split mid-drain, no catch-up.
	CutWrites          int  // K: writes present in the recovered image
	LostWrites         int  // acked writes missing from the image (RPO)
	FailoverConsistent bool // image is the exact ack-order prefix {1..K}
}

// E13ShardedThroughput measures per-tenant drain scale-out: one write-heavy
// tenant whose consistency-group journal is sharded across increasing lane
// counts over a multi-link inter-site fabric. Each shard count runs twice —
// once to measure drain throughput, once splitting the pair mid-drain to
// verify the recovered image is still an exact prefix of the tenant's
// cross-volume ack order (the epoch-barrier consistency cut). The shape the
// ROADMAP's sharded-journal item needs: throughput scales with shards until
// the fabric's member links saturate, and no shard count ever trades away
// the consistency cut.
func E13ShardedThroughput(seed int64, shardCounts []int, writes int) ([]ShardedThroughputResult, error) {
	if writes <= 0 {
		writes = 4000
	}
	var out []ShardedThroughputResult
	for _, shards := range shardCounts {
		res := ShardedThroughputResult{Shards: shards, Writes: writes}
		if err := e13Run(seed, shards, writes, false, &res); err != nil {
			return out, fmt.Errorf("E13 shards=%d throughput: %w", shards, err)
		}
		if err := e13Run(seed, shards, writes, true, &res); err != nil {
			return out, fmt.Errorf("E13 shards=%d failover: %w", shards, err)
		}
		res.ThroughputMBps = float64(res.Bytes) / 1e6 / res.DrainTime.Seconds()
		out = append(out, res)
	}
	// Normalize against the 1-shard row (the first row when no 1-shard
	// count was swept), guarding the degenerate zero-throughput case.
	base := out[0].ThroughputMBps
	for _, r := range out {
		if r.Shards == 1 {
			base = r.ThroughputMBps
			break
		}
	}
	for i := range out {
		if base > 0 {
			out[i].Speedup = out[i].ThroughputMBps / base
		}
	}
	return out, nil
}

// e13Run drives one full-control-plane run: the tenant declared at `shards`
// journal shards (which the tenant controller and the operator thread down
// to the replication plugin), then the write-heavy load — drained to empty,
// or cut mid-backlog.
func e13Run(seed int64, shards, writes int, failover bool, res *ShardedThroughputResult) error {
	// A thin pipe per member: one 64-record batch serializes in ~67ms, so a
	// single lane is visibly the bottleneck and extra lanes visibly help.
	member := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 4e6}
	links := make([]netlink.Config, e13Links)
	for i := range links {
		links[i] = member
	}
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		Fabric:       fabric.Config{Links: links},
		VolumeBlocks: int64(writes/e13Volumes + 2),
	})

	var driveErr, cutErr error
	var g replication.Replicator
	halfway, written := sys.Env.NewEvent(), sys.Env.NewEvent()
	sys.Env.Process("driver", func(p *sim.Proc) {
		defer written.Trigger()
		var vols []*storage.Volume
		if vols, g, driveErr = provisionDataTenant(p, sys, e13Namespace, e13Volumes, shards, ""); driveErr != nil {
			return
		}
		start := p.Now()
		if driveErr = writeStamped(p, vols, writes, 0, halfway); driveErr != nil || failover {
			return // on a failover run the disaster process owns the rest
		}
		g.CatchUp(p)
		res.DrainTime = p.Now() - start
		res.Bytes = g.AppliedBytes()
		res.EpochCommits = g.EpochCommits()
	})
	if failover {
		sys.Env.Process("disaster", func(p *sim.Proc) {
			p.Wait(halfway)
			p.Sleep(30 * time.Millisecond) // let the drain run mid-backlog
			res.CutWrites, res.FailoverConsistent, cutErr = cutStamped(p, g, written)
			res.LostWrites = writes - res.CutWrites
		})
	}
	sys.Env.Run(0)
	// Quiesce before discarding the system so repeated runs in one process
	// do not accumulate parked simulation processes.
	sys.Stop()
	sys.Env.Run(0)
	return errors.Join(driveErr, cutErr)
}

// E13Table renders the E13 results.
func E13Table(results []ShardedThroughputResult) *Table {
	t := NewTable("E13: sharded consistency-group journals — per-tenant drain throughput vs shard count",
		"shards", "writes", "drain time", "MB/s", "speedup", "epoch cuts", "failover cut", "lost", "consistent")
	for _, r := range results {
		t.AddRow(r.Shards, r.Writes, r.DrainTime, fmt.Sprintf("%.2f", r.ThroughputMBps),
			fmt.Sprintf("%.2fx", r.Speedup), r.EpochCommits, r.CutWrites, r.LostWrites, r.FailoverConsistent)
	}
	t.AddNote("shape: throughput scales with shards until the fabric's %d member links saturate; every failover image is an exact ack-order prefix", e13Links)
	return t
}
