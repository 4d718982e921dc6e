package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/sim"
)

// OperatorResult is one row of experiment E2.
type OperatorResult struct {
	Volumes     int
	UserOpsNSO  int           // operations the user performs with the operator
	UserOpsHand int           // operations a hand configuration would take
	TimeToReady time.Duration // tag -> ReplicationGroup Ready
	APICalls    int64         // total platform API calls during configuration
}

// E2Operator measures the namespace operator's automation (Figs. 3-4): the
// user performs exactly one operation (tagging the namespace) regardless of
// how many volumes the business process spans, where a hand configuration
// grows linearly (per volume: identify the PV↔volume correspondence, create
// the backup twin, its PV and PVC, and attach it to the journal — plus
// creating the journal and starting the pair).
//
// Expected shape: NSO user operations stay at 1; hand operations grow ~5x
// volumes; time-to-ready grows mildly with volume count.
func E2Operator(seed int64, volumeCounts []int) ([]OperatorResult, error) {
	var out []OperatorResult
	for _, n := range volumeCounts {
		sys := core.NewSystem(core.Config{Seed: seed, VolumeBlocks: 128})
		var res OperatorResult
		res.Volumes = n
		res.UserOpsNSO = 1 // the tag
		// Hand configuration: per volume 4 ops (backup volume, backup PV,
		// backup PVC, journal attach) + journal create + replication start.
		res.UserOpsHand = 4*n + 2
		err := runProc(sys.Env, "e2", time.Hour, func(p *sim.Proc) error {
			if err := sys.Main.API.Create(p, &platform.Namespace{
				Meta: platform.Meta{Kind: platform.KindNamespace, Name: "biz"},
			}); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := sys.Main.API.Create(p, &platform.PersistentVolumeClaim{
					Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "biz", Name: fmt.Sprintf("vol-%03d", i)},
					Spec: platform.PVCSpec{StorageClassName: core.StorageClassName, SizeBlocks: 128},
				}); err != nil {
					return err
				}
			}
			// Wait for binding, then measure tag -> Ready. The tag is the
			// paper's literal operation — `oc label namespace biz
			// backup=ConsistentCopyToCloud` — with no Tenant object involved.
			p.Sleep(50 * time.Millisecond)
			callsBefore := sys.Main.API.Calls() + sys.Backup.API.Calls()
			start := p.Now()
			obj, err := sys.Main.API.Get(p, platform.ObjectKey{Kind: platform.KindNamespace, Name: "biz"})
			if err != nil {
				return err
			}
			ns := obj.DeepCopy().(*platform.Namespace)
			ns.Labels = map[string]string{operator.Tag: operator.TagValue}
			if err := sys.Main.API.Update(p, ns); err != nil {
				return err
			}
			if err := sys.WaitTenantCondition(p, "biz", core.CondBackupReady(), 30*time.Second); err != nil {
				return err
			}
			res.TimeToReady = p.Now() - start
			res.APICalls = sys.Main.API.Calls() + sys.Backup.API.Calls() - callsBefore
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d: %w", n, err)
		}
		// Sanity: the operator really did configure one CG with n members.
		groups := sys.Replication.Groups(operator.GroupNameFor("biz"))
		if len(groups) != 1 || len(groups[0].Members()) != n {
			return nil, fmt.Errorf("E2 n=%d: configured %d groups", n, len(groups))
		}
		quiesce(sys, time.Hour)
		out = append(out, res)
	}
	return out, nil
}

// E2Table renders E2 results.
func E2Table(results []OperatorResult) *Table {
	t := NewTable("E2: operator automation — user operations and time to configure backup (Figs. 3-4)",
		"volumes", "user ops (NSO)", "user ops (hand)", "time to ready", "API calls")
	for _, r := range results {
		t.AddRow(r.Volumes, r.UserOpsNSO, r.UserOpsHand, r.TimeToReady, r.APICalls)
	}
	t.AddNote("shape: NSO stays at one user operation; hand configuration grows linearly with volumes")
	return t
}
