package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
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

// e13Outcome is what one shard count's two runs measure: the throughput
// run drains every write to empty, the failover run splits the pair
// mid-drain with no catch-up.
type e13Outcome struct {
	drain  time.Duration // first write -> backup fully caught up
	bytes  int64         // payload bytes committed at the backup
	epochs int64         // consistency cuts declared (sharded engine only)
	cut    int           // K: writes present in the recovered image
	exact  bool          // image is the exact ack-order prefix {1..K}
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
func E13ShardedThroughput(seed int64, shardCounts []int, writes int) (*Table, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if writes <= 0 {
		writes = 4000
	}
	t := NewTable("E13: sharded consistency-group journals — per-tenant drain throughput vs shard count",
		"shards", "writes", "drain time", "MB/s", "speedup", "epoch cuts", "failover cut", "lost", "consistent")
	for _, shards := range shardCounts {
		var o e13Outcome
		if err := e13Run(seed, shards, writes, false, &o); err != nil {
			return nil, fmt.Errorf("E13 shards=%d throughput: %w", shards, err)
		}
		if err := e13Run(seed, shards, writes, true, &o); err != nil {
			return nil, fmt.Errorf("E13 shards=%d failover: %w", shards, err)
		}
		t.AddRow(shards, writes, o.drain, mbps(o.bytes, o.drain), speedup(0), o.epochs, o.cut, writes-o.cut, o.exact)
	}
	// A row's speedup is known once the 1-row is measured.
	t.fillSpeedups()
	t.AddNote("shape: throughput scales with shards until the fabric's %d member links saturate; every failover image is an exact ack-order prefix", e13Links)
	return t, nil
}

// e13Run drives one full-control-plane run: the tenant declared at `shards`
// journal shards (which the tenant controller and the operator thread down
// to the replication plugin), then the write-heavy load — drained to empty,
// or cut mid-backlog.
func e13Run(seed int64, shards, writes int, failover bool, o *e13Outcome) error {
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		Fabric:       fabric.Config{Links: thinLinks(e13Links)},
		VolumeBlocks: int64(writes/e13Volumes + 2),
	})

	var driveErr, cutErr error
	var g *replication.Group
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
		o.drain, o.bytes, o.epochs = p.Now()-start, g.AppliedBytes(), g.EpochCommits()
	})
	if failover {
		sys.Env.Process("disaster", func(p *sim.Proc) {
			p.Wait(halfway)
			p.Sleep(30 * time.Millisecond) // let the drain run mid-backlog
			o.cut, o.exact, cutErr = cutStamped(p, g, written)
		})
	}
	sys.Env.Run(0)
	quiesce(sys, 0)
	return errors.Join(driveErr, cutErr)
}
