package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/csiplugin"
	"repro/internal/invariants"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The stamped-drain scenario E13, E15 and E18 measure, written once (E17
// uses its first step): a data-only tenant whose volumes take block writes
// stamped with their ack sequence, so a backup image cut mid-drain can be
// scored as a prefix of the tenant's cross-volume ack order. Each experiment
// keeps its own processes and calls these from them.

// provisionDataTenant declares a data-only tenant of `claims` replicated
// volumes on `shards` journal shards (slo names its SLO class, "" for none),
// waits until it is Ready, and returns its main-site volumes in claim order
// and its replication engine.
func provisionDataTenant(p *sim.Proc, sys *core.System, ns string, claims, shards int, slo string) ([]*storage.Volume, *replication.Group, error) {
	spec := platform.TenantSpec{
		Namespace:     ns,
		PVCNames:      make([]string, claims),
		Backup:        true,
		JournalShards: shards,
		SLOClass:      slo,
		Profile:       "data-only",
	}
	for i := range spec.PVCNames {
		spec.PVCNames[i] = fmt.Sprintf("d%02d", i)
	}
	if err := sys.ApplyTenant(p, spec); err != nil {
		return nil, nil, err
	}
	if err := sys.WaitTenantCondition(p, ns, core.CondReady(), time.Minute); err != nil {
		return nil, nil, err
	}
	vols := make([]*storage.Volume, claims)
	for i, claim := range spec.PVCNames {
		var err error
		if vols[i], err = sys.Main.Array.Volume(csiplugin.VolumeIDForClaim(ns, claim)); err != nil {
			return nil, nil, err
		}
	}
	groups := sys.Groups(ns)
	if len(groups) != 1 || groups[0].Lanes() != shards {
		return nil, nil, fmt.Errorf("%s: replication engines %v, want one on %d lanes", ns, groups, shards)
	}
	return vols, groups[0], nil
}

// writeStamped issues `writes` block writes round-robin over vols, write i
// (counting from 1) carrying i in its first eight bytes, and triggers
// halfway once half of them are acked. A pace > 0 sleeps that long after
// every write, so epochs seal and commit progressively instead of the whole
// load landing in one burst ahead of the drain.
func writeStamped(p *sim.Proc, vols []*storage.Volume, writes int, pace time.Duration, halfway *sim.Event) error {
	buf := make([]byte, vols[0].BlockSize())
	for i := 0; i < writes; i++ {
		binary.BigEndian.PutUint64(buf, uint64(i+1))
		if _, err := vols[i%len(vols)].Write(p, int64(i/len(vols)), buf); err != nil {
			return err
		}
		if pace > 0 {
			p.Sleep(pace)
		}
		if i == writes/2 {
			halfway.Trigger()
		}
	}
	return nil
}

// cutStamped splits the pair under the engine with no catch-up, waits for
// the writer to finish acking into the stranded journal, and scores the
// backup image: the highest K with writes 1..K all present, and whether the
// image is exactly that prefix (a consistent cross-volume cut).
func cutStamped(p *sim.Proc, g *replication.Group, written *sim.Event) (int, bool, error) {
	vols, err := g.Failover()
	if err != nil {
		return 0, false, err
	}
	p.Wait(written)
	cut, exact := invariants.StampedPrefix(vols)
	return cut, exact, nil
}
