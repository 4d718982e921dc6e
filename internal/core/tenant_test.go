package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/sim"
)

// runSystem builds a system and drives fn in a simulation process.
func runSystem(t *testing.T, cfg Config, fn func(p *sim.Proc, sys *System)) *System {
	t.Helper()
	sys := NewSystem(cfg)
	failed := false
	sys.Env.Process("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				failed = true
				t.Errorf("panic: %v", r)
			}
		}()
		fn(p, sys)
	})
	sys.Env.Run(2 * time.Hour)
	if failed {
		t.FailNow()
	}
	return sys
}

// spec returns a standard business-process tenant spec.
func tenantSpec(ns string) platform.TenantSpec {
	return platform.TenantSpec{
		Namespace: ns,
		PVCNames:  []string{"sales", "stock"},
		Backup:    true,
	}
}

func TestProvisionTenantDeclaresEverything(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		bp, err := sys.ProvisionTenant(p, tenantSpec("shop"))
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if bp.Sales == nil || bp.Stock == nil || bp.Shop == nil {
			t.Error("business process incomplete")
			return
		}
		if groups := sys.Groups("shop"); len(groups) != 1 || len(groups[0].Members()) != 2 {
			t.Errorf("replication groups = %v", groups)
		}
		if got := len(sys.Backup.API.List(p, platform.KindPVC, "shop")); got != 2 {
			t.Errorf("backup PVCs = %d", got)
		}
		// The spec'd world serves load.
		if _, err := bp.Shop.PlaceOrder(p); err != nil {
			t.Errorf("order: %v", err)
		}
	})
}

// TestDecommissionReclaimsEverything is the array-level free-list
// invariant: provisioning then decommissioning a tenant returns both
// arrays' object listings (Array.Residue of every prefix) to exactly the
// pre-provision snapshot — no leaked volumes, journals or snapshots — while a
// second tenant keeps serving.
func TestDecommissionReclaimsEverything(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		survivor, err := sys.ProvisionTenant(p, tenantSpec("keeper"))
		if err != nil {
			t.Errorf("provision keeper: %v", err)
			return
		}
		// Quiesce the survivor's drain so the listings are stable.
		sys.CatchUp(p, "keeper")
		mainBefore, backupBefore := sys.Main.Array.Residue(""), sys.Backup.Array.Residue("")

		bp, err := sys.ProvisionTenant(p, tenantSpec("doomed"))
		if err != nil {
			t.Errorf("provision doomed: %v", err)
			return
		}
		if err := bp.Shop.Run(p, 10); err != nil {
			t.Errorf("orders: %v", err)
			return
		}
		// Leave a snapshot group on the backup twins: decommission must
		// reclaim COW state too.
		sys.CatchUp(p, "doomed")
		if _, err := sys.SnapshotBackup("doomed", "doomed-final"); err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		if slices.Equal(sys.Main.Array.Residue(""), mainBefore) {
			t.Error("provisioning changed nothing on the main array?")
			return
		}

		if err := sys.DecommissionTenant(p, "doomed"); err != nil {
			t.Errorf("decommission: %v", err)
			return
		}
		sys.CatchUp(p, "keeper") // re-quiesce before comparing listings
		if res := sys.TenantResidue("doomed"); len(res) != 0 {
			t.Errorf("residue: %v", res)
		}
		if got := sys.Main.Array.Residue(""); !slices.Equal(got, mainBefore) {
			t.Errorf("main array objects %v, want pre-provision %v", got, mainBefore)
		}
		if got := sys.Backup.Array.Residue(""); !slices.Equal(got, backupBefore) {
			t.Errorf("backup array objects %v, want pre-provision %v", got, backupBefore)
		}
		if err := sys.WaitTenantCondition(p, "doomed", CondGone(), 0); err != nil {
			t.Errorf("decommissioned tenant is not Gone: %v", err)
		}
		// The survivor is untouched and still replicating.
		if _, err := survivor.Shop.PlaceOrder(p); err != nil {
			t.Errorf("survivor order: %v", err)
		}
		if !sys.CatchUp(p, "keeper") {
			t.Error("survivor drain broken")
		}
	})
}

// TestDecommissionShardedTenantReclaimsShards runs the invariant against a
// sharded journal: every shard journal and lane path must be reclaimed.
func TestDecommissionShardedTenantReclaimsShards(t *testing.T) {
	member := netlinkConfig{Propagation: time.Millisecond, BandwidthBps: 1e8}
	runSystem(t, Config{
		Fabric: fabric.Config{Links: []netlinkConfig{member, member}},
	}, func(p *sim.Proc, sys *System) {
		before := sys.Main.Array.Residue("")
		spec := tenantSpec("sharded")
		spec.JournalShards = 2
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		groups := sys.Groups("sharded")
		if len(groups) != 1 {
			t.Errorf("groups = %d", len(groups))
			return
		}
		if groups[0].Lanes() != spec.JournalShards {
			t.Errorf("engine runs %d lanes, want %d (spec shards ignored)", groups[0].Lanes(), spec.JournalShards)
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Errorf("orders: %v", err)
			return
		}
		if err := sys.DecommissionTenant(p, "sharded"); err != nil {
			t.Errorf("decommission: %v", err)
			return
		}
		if got := sys.Main.Array.Residue(""); !slices.Equal(got, before) {
			t.Errorf("main array objects %v, want %v", got, before)
		}
		if ps := sys.TenantLanePaths("sharded"); ps != nil {
			t.Errorf("lane paths survived decommission: %v", ps)
		}
	})
}

// twoClassFabric is a two-member fabric with gold and bulk QoS classes.
func twoClassFabric() Config {
	member := netlinkConfig{Propagation: time.Millisecond, BandwidthBps: 1e8}
	return Config{Fabric: fabric.Config{
		Links:   []netlinkConfig{member, member},
		Classes: []fabric.ClassConfig{{Name: "gold", Weight: 4}, {Name: "bulk", Weight: 1}},
	}}
}

// TestPerLaneQoSClasses pins that a tenant's QoS class is every drain lane's
// class: each lane of a 2-shard tenant rides the class its spec names (bulk,
// which is not the fabric's default class).
func TestPerLaneQoSClasses(t *testing.T) {
	runSystem(t, twoClassFabric(), func(p *sim.Proc, sys *System) {
		spec := tenantSpec("laned")
		spec.QoSClass = "bulk"
		spec.JournalShards = 2
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if err := bp.Shop.Run(p, 4); err != nil {
			t.Errorf("orders: %v", err)
			return
		}
		sys.CatchUp(p, "laned")
		lanes := sys.TenantLanePaths("laned")
		if len(lanes) != 2 {
			t.Errorf("lane paths = %v, want 2", lanes)
			return
		}
		for i, lp := range lanes {
			if lp.Class() != "bulk" {
				t.Errorf("lane %d class = %q, want bulk", i, lp.Class())
			}
		}
	})
}

// TestClassChangeRefusedOnceDrained pins that a tenant never reads Ready
// with its lanes on two classes: lane paths are bound to the tenant's class
// when they are made, so once the tenant drains, a spec that changes the
// class (here together with a reshard that would add a lane) leaves it
// Failed by both names, and reverting the class brings it back to Ready
// with every lane on the original class.
func TestClassChangeRefusedOnceDrained(t *testing.T) {
	runSystem(t, twoClassFabric(), func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.QoSClass = "bulk"
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if err := bp.Shop.Run(p, 4); err != nil {
			t.Errorf("orders: %v", err)
			return
		}
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) {
			s.QoSClass, s.JournalShards = "gold", 2
		}); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		st, ok := waitPhase(t, p, sys, "shop", platform.TenantFailed)
		if !ok || !strings.Contains(st.Message, `"bulk"`) || !strings.Contains(st.Message, `"gold"`) {
			t.Errorf("class change on a draining tenant: %s (%q), want Failed naming bulk and gold", st.Phase, st.Message)
			return
		}
		if ps := sys.TenantLanePaths("shop"); ps != nil {
			t.Errorf("the refused spec still resharded: lane paths %v", ps)
		}
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.QoSClass = "bulk" }); err != nil {
			t.Errorf("revert: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", CondResharded(2), 5*time.Second); err != nil {
			t.Errorf("reshard after the revert: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", CondReady(), 5*time.Second); err != nil {
			t.Errorf("reverted class: %v, want Ready", err)
			return
		}
		lanes := sys.TenantLanePaths("shop")
		if len(lanes) != 2 {
			t.Errorf("lane paths = %v, want 2", lanes)
			return
		}
		for i, lp := range lanes {
			if lp.Class() != "bulk" {
				t.Errorf("lane %d class = %q, want bulk", i, lp.Class())
			}
		}
	})
}

// TestDeleteRacesReconcile is the controller-churn satellite: a Tenant spec
// deleted while provisioning is still reconciling must converge to a full
// teardown — no orphan replication groups, no array residue.
func TestDeleteRacesReconcile(t *testing.T) {
	for _, delay := range []time.Duration{
		0, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond,
	} {
		sys := NewSystem(Config{})
		failed := false
		sys.Env.Process("race", func(p *sim.Proc) {
			if err := sys.Main.API.Create(p, &platform.Tenant{
				Meta: platform.Meta{Kind: platform.KindTenant, Name: "flash"},
				Spec: tenantSpec("flash"),
			}); err != nil {
				failed = true
				t.Errorf("delay %v: create: %v", delay, err)
				return
			}
			p.Sleep(delay) // let provisioning get partway
			if err := sys.DecommissionTenant(p, "flash"); err != nil {
				failed = true
				t.Errorf("delay %v: decommission: %v", delay, err)
			}
		})
		sys.Env.Run(time.Hour)
		if failed {
			t.FailNow()
		}
		if res := sys.TenantResidue("flash"); len(res) != 0 {
			t.Fatalf("delay %v: residue: %v", delay, res)
		}
		if groups := sys.Groups("flash"); len(groups) != 0 {
			t.Fatalf("delay %v: orphan groups: %v", delay, groups)
		}
		if res := sys.Main.Array.Residue(""); len(res) != 0 {
			t.Fatalf("delay %v: main array not clean: %v", delay, res)
		}
		sys.Stop()
		sys.Env.Run(time.Hour)
	}
}

// TestTenantSpecDriftRepaired pins the declarative contract: the controller
// owns the backup tag of a managed namespace, so imperative label edits are
// reverted to the spec on the next reconcile.
func TestTenantSpecDriftRepaired(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("managed")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		nsKey := platform.ObjectKey{Kind: platform.KindNamespace, Name: "managed"}
		obj, err := sys.Main.API.Get(p, nsKey)
		if err != nil {
			t.Error(err)
			return
		}
		ns := obj.DeepCopy().(*platform.Namespace)
		delete(ns.Labels, "backup")
		if err := sys.Main.API.Update(p, ns); err != nil {
			t.Error(err)
			return
		}
		// The controller must re-tag and replication must reconverge (the
		// operator may have torn the group down before the repair landed).
		deadline := p.Now() + 5*time.Second
		for {
			obj, err := sys.Main.API.Get(p, nsKey)
			if err == nil && obj.(*platform.Namespace).Labels["backup"] == "ConsistentCopyToCloud" {
				break
			}
			if p.Now() >= deadline {
				t.Error("tag drift never repaired")
				return
			}
			p.Sleep(10 * time.Millisecond)
		}
		if err := sys.WaitTenantCondition(p, "managed", CondBackupReady(), 10*time.Second); err != nil {
			t.Errorf("replication did not reconverge after drift: %v", err)
			return
		}
		if groups := sys.Groups("managed"); len(groups) != 1 {
			t.Errorf("groups after drift = %d", len(groups))
		}
	})
}

// waitPhase polls the tenant's status for up to 5s until it reads want.
func waitPhase(t *testing.T, p *sim.Proc, sys *System, ns string, want platform.TenantPhase) (platform.TenantStatus, bool) {
	var st platform.TenantStatus
	for deadline := p.Now() + 5*time.Second; p.Now() < deadline; p.Sleep(10 * time.Millisecond) {
		obj, err := sys.Main.API.Get(p, tenantKey(ns))
		if err != nil {
			t.Error(err)
			return st, false
		}
		if st = obj.(*platform.Tenant).Status; st.Phase == want {
			return st, true
		}
	}
	return st, false
}

// TestLateClaimFailsProtectedTenant pins what a tenant reports when a claim
// joins its namespace after replication was configured, through either door
// (the Tenant spec, or a PVC made straight in the tagged namespace): the
// running consistency group does not cover the claim, so the tenant is
// Failed by the claim's name — never Ready with an unjournaled volume — and
// goes back to Ready once the claim is gone.
func TestLateClaimFailsProtectedTenant(t *testing.T) {
	auditKey := platform.ObjectKey{Kind: platform.KindPVC, Namespace: "shop", Name: "audit"}
	doors := []struct {
		name        string
		join, leave func(p *sim.Proc, sys *System) error
	}{
		{
			name: "tenant spec",
			join: func(p *sim.Proc, sys *System) error {
				return sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.PVCNames = append(s.PVCNames, "audit") })
			},
			leave: func(p *sim.Proc, sys *System) error {
				if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) { s.PVCNames = s.PVCNames[:2] }); err != nil {
					return err
				}
				sys.Main.API.Delete(p, auditKey)
				return nil
			},
		},
		{
			name: "pvc in the tagged namespace",
			join: func(p *sim.Proc, sys *System) error {
				return sys.Main.API.Create(p, &platform.PersistentVolumeClaim{
					Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "shop", Name: "audit"},
					Spec: platform.PVCSpec{StorageClassName: StorageClassName, SizeBlocks: 64},
				})
			},
			leave: func(p *sim.Proc, sys *System) error { sys.Main.API.Delete(p, auditKey); return nil },
		},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
				if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
					t.Errorf("provision: %v", err)
					return
				}
				if err := door.join(p, sys); err != nil {
					t.Errorf("join: %v", err)
					return
				}
				st, ok := waitPhase(t, p, sys, "shop", platform.TenantFailed)
				if !ok || !strings.Contains(st.Message, "shop/audit") {
					t.Errorf("late claim: tenant %s (%q), want Failed naming shop/audit", st.Phase, st.Message)
					return
				}
				if err := sys.WaitTenantCondition(p, "shop", CondReady(), time.Second); err == nil || !strings.Contains(err.Error(), "shop/audit") {
					t.Errorf("CondReady with an unprotected claim = %v, want an error naming shop/audit", err)
				}
				if g := sys.Groups("shop")[0]; len(g.Members()) != 2 || g.Stopped() {
					t.Errorf("engine members = %v stopped = %v, want the original pair still draining", g.Members(), g.Stopped())
				}
				if err := door.leave(p, sys); err != nil {
					t.Errorf("leave: %v", err)
					return
				}
				if st, ok := waitPhase(t, p, sys, "shop", platform.TenantReady); !ok {
					t.Errorf("late claim gone: tenant %s (%q), want Ready", st.Phase, st.Message)
				}
			})
		})
	}
}

// TestWaitTenantReadySurfacesFailure pins the Failed phase: a tenant whose
// spec can never converge (backup requested, no claims to replicate)
// reports Failed with the operator's message rather than hanging.
func TestWaitTenantReadySurfacesFailure(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := platform.TenantSpec{Namespace: "empty", Backup: true}
		if _, err := sys.ProvisionTenant(p, spec); err == nil {
			t.Error("backup of an empty namespace reported Ready")
		} else if !strings.Contains(err.Error(), "not ready") && !strings.Contains(err.Error(), "failed") {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

// TestDataOnlyProfileSkipsDatabases pins the workload-profile knob: a
// "data-only" tenant gets provisioned, replicated claims but no databases
// or shop attached, even when the claims are named sales/stock.
func TestDataOnlyProfileSkipsDatabases(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("raw")
		spec.Profile = "data-only"
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if bp.Sales != nil || bp.Stock != nil || bp.Shop != nil {
			t.Error("data-only profile opened databases")
		}
		if groups := sys.Groups("raw"); len(groups) != 1 {
			t.Errorf("replication groups = %d", len(groups))
		}
	})
}

// TestDecommissionWithPrefixSiblingNamespace pins residue attribution: a
// managed namespace that extends the decommissioned one ("shop-2" vs
// "shop") must not be counted as the shorter tenant's residue, or the
// decommission would wait on the sibling's healthy volumes forever.
func TestDecommissionWithPrefixSiblingNamespace(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision shop: %v", err)
			return
		}
		sibling, err := sys.ProvisionTenant(p, tenantSpec("shop-2"))
		if err != nil {
			t.Errorf("provision shop-2: %v", err)
			return
		}
		if err := sys.DecommissionTenant(p, "shop"); err != nil {
			t.Errorf("decommission shop blocked by sibling: %v", err)
			return
		}
		if res := sys.TenantResidue("shop"); len(res) != 0 {
			t.Errorf("shop residue: %v", res)
		}
		// The sibling is intact and still replicating.
		if _, err := sibling.Shop.PlaceOrder(p); err != nil {
			t.Errorf("sibling order: %v", err)
		}
		if !sys.CatchUp(p, "shop-2") {
			t.Error("sibling drain broken")
		}
		if res := sys.TenantResidue("shop-2"); len(res) == 0 {
			t.Error("sibling residue empty — its volumes vanished?")
		}
	})
}

// TestEnableBackupUnknownNamespaceFailsFast: declaring backup on a typo'd
// namespace returns not-found immediately instead of creating an empty
// managed tenant and timing out.
func TestEnableBackupUnknownNamespaceFailsFast(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		start := p.Now()
		err := enableBackup(p, sys, "no-such-namespace")
		if !errors.Is(err, platform.ErrNotFound) {
			t.Errorf("enable backup of unknown namespace: %v, want ErrNotFound", err)
			return
		}
		if p.Now()-start > time.Second {
			t.Errorf("failure took %v — burned the provision timeout", p.Now()-start)
		}
		if _, err := sys.Main.API.Get(p, tenantKey("no-such-namespace")); err == nil {
			t.Error("a Tenant object was left behind")
		}
	})
}

// TestTagByHandNeedsNoTenantObject pins the paper's single operation the way
// E2 performs it: a namespace and claims created straight on the API server,
// then tagged by hand, are configured by the operator into one consistency
// group with every claim a member. No Tenant object exists, so the tenant
// controllers never reconcile the namespace; CondBackupReady still observes
// the group, and removing the tag removes it.
func TestTagByHandNeedsNoTenantObject(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		api := sys.Main.API
		nsKey := platform.ObjectKey{Kind: platform.KindNamespace, Name: "biz"}
		if err := api.Create(p, &platform.Namespace{Meta: platform.Meta{Kind: platform.KindNamespace, Name: "biz"}}); err != nil {
			t.Error(err)
			return
		}
		claims := []string{"orders", "stock", "audit"}
		for _, c := range claims {
			if err := api.Create(p, &platform.PersistentVolumeClaim{
				Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "biz", Name: c},
				Spec: platform.PVCSpec{StorageClassName: StorageClassName, SizeBlocks: 64},
			}); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(50 * time.Millisecond) // let the provisioner bind them
		setTag := func(tagged bool) error {
			obj, err := api.Get(p, nsKey)
			if err != nil {
				return err
			}
			ns := obj.DeepCopy().(*platform.Namespace)
			if tagged {
				ns.Labels = map[string]string{operator.Tag: operator.TagValue}
			} else {
				delete(ns.Labels, operator.Tag)
			}
			return api.Update(p, ns)
		}

		if err := setTag(true); err != nil {
			t.Errorf("tag: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "biz", CondBackupReady(), 10*time.Second); err != nil {
			t.Errorf("backup never ready without a Tenant object: %v", err)
			return
		}
		if gs := sys.Groups("biz"); len(gs) != 1 || len(gs[0].Members()) != len(claims) {
			t.Errorf("groups = %v, want one consistency group of %d members", gs, len(claims))
		}
		if _, err := api.Get(p, tenantKey("biz")); !errors.Is(err, platform.ErrNotFound) {
			t.Errorf("a Tenant object appeared for a hand-tagged namespace (get: %v)", err)
		}
		if _, managed := sys.managed("biz"); managed {
			t.Error("hand-tagged namespace entered the managed-tenant set")
		}
		if n := sys.tenantCtrl.Reconciles(); n != 0 {
			t.Errorf("tenant controller charged %d reconciles to an unmanaged namespace", n)
		}

		if err := setTag(false); err != nil {
			t.Errorf("untag: %v", err)
			return
		}
		deadline := p.Now() + 5*time.Second
		for len(sys.Groups("biz")) > 0 && p.Now() < deadline {
			p.Sleep(50 * time.Millisecond)
		}
		if got := len(sys.Groups("biz")); got != 0 {
			t.Errorf("groups after untag = %d", got)
		}
		rgKey := platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: operator.GroupNameFor("biz")}
		if _, err := api.Get(p, rgKey); !errors.Is(err, platform.ErrNotFound) {
			t.Errorf("ReplicationGroup survived the untag (get: %v)", err)
		}
	})
}

// TestDecommissionWithImperativePrefixSibling extends the sibling test to
// an UNMANAGED namespace: "shop-2" provisioned via the raw platform API
// (no Tenant spec) must not block decommissioning the managed "shop".
func TestDecommissionWithImperativePrefixSibling(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision shop: %v", err)
			return
		}
		// Imperative sibling: namespace + bound claim, no Tenant object.
		if err := sys.Main.API.Create(p, &platform.Namespace{
			Meta: platform.Meta{Kind: platform.KindNamespace, Name: "shop-2"},
		}); err != nil {
			t.Error(err)
			return
		}
		if err := sys.Main.API.Create(p, &platform.PersistentVolumeClaim{
			Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "shop-2", Name: "data"},
			Spec: platform.PVCSpec{StorageClassName: StorageClassName, SizeBlocks: 64},
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond) // let the provisioner bind it
		if err := sys.DecommissionTenant(p, "shop"); err != nil {
			t.Errorf("decommission blocked by imperative sibling: %v", err)
			return
		}
		if _, err := sys.Main.Array.Volume("pvc-shop-2-data"); err != nil {
			t.Errorf("sibling volume vanished: %v", err)
		}
	})
}
