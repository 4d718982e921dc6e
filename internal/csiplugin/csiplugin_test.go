package csiplugin

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/invariants"
	"repro/internal/netlink"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// twoSites is the plugin test fixture: main and backup arrays + API
// servers, one link every drain lane shares, and a running provisioner on
// the main site.
type twoSites struct {
	env         *sim.Env
	sites       SitePair
	provisioner *Provisioner
}

func newTwoSites(t *testing.T) *twoSites {
	t.Helper()
	env := sim.NewEnv(1)
	link := netlink.New(env, netlink.Config{Propagation: time.Millisecond})
	f := &twoSites{
		env: env,
		sites: SitePair{
			MainAPI:     platform.NewAPIServer(env, platform.APIConfig{}),
			BackupAPI:   platform.NewAPIServer(env, platform.APIConfig{}),
			MainArray:   storage.NewArray(env, "main-array", storage.Config{}),
			BackupArray: storage.NewArray(env, "backup-array", storage.Config{}),
			LanePaths: func(_ string, lanes int) []fabric.Path {
				return slices.Repeat([]fabric.Path{link}, lanes)
			},
			Engines: replication.Registry{},
		},
	}
	f.provisioner = NewProvisioner(env, f.sites.MainAPI,
		map[string]*storage.Array{"main-array": f.sites.MainArray})
	f.provisioner.Start()
	env.Process("setup", func(p *sim.Proc) {
		if err := f.sites.MainAPI.Create(p, &platform.StorageClass{
			Meta:        platform.Meta{Kind: platform.KindStorageClass, Name: "fast"},
			Provisioner: "csi.sim", ArrayName: "main-array",
		}); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	return f
}

// createClaims makes PVCs and lets the provisioner bind them.
func (f *twoSites) createClaims(t *testing.T, ns string, names ...string) {
	t.Helper()
	f.env.Process("claims", func(p *sim.Proc) {
		for _, name := range names {
			err := f.sites.MainAPI.Create(p, &platform.PersistentVolumeClaim{
				Meta: platform.Meta{Kind: platform.KindPVC, Namespace: ns, Name: name},
				Spec: platform.PVCSpec{StorageClassName: "fast", SizeBlocks: 256},
			})
			if err != nil {
				t.Error(err)
			}
		}
	})
	f.env.Run(time.Second)
}

func TestProvisionerBindsClaims(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales", "stock")
	f.env.Process("check", func(p *sim.Proc) {
		for _, name := range []string{"sales", "stock"} {
			obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindPVC, Namespace: "shop", Name: name})
			if err != nil {
				t.Error(err)
				return
			}
			c := obj.(*platform.PersistentVolumeClaim)
			if c.Status.VolumeName == "" {
				t.Errorf("claim %s is not bound", name)
			}
			if _, err := f.sites.MainArray.Volume(VolumeIDForClaim("shop", name)); err != nil {
				t.Errorf("array volume missing: %v", err)
			}
			if _, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindPV, Name: c.Status.VolumeName}); err != nil {
				t.Errorf("PV missing: %v", err)
			}
		}
	})
	f.env.Run(0)
	if f.provisioner.Provisioned() != 2 {
		t.Fatalf("provisioned = %d", f.provisioner.Provisioned())
	}
}

func TestProvisionerUnknownClassRetries(t *testing.T) {
	f := newTwoSites(t)
	f.env.Process("claim", func(p *sim.Proc) {
		f.sites.MainAPI.Create(p, &platform.PersistentVolumeClaim{
			Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "shop", Name: "bad"},
			Spec: platform.PVCSpec{StorageClassName: "missing", SizeBlocks: 10},
		})
	})
	f.env.Run(100 * time.Millisecond)
	f.env.Process("check", func(p *sim.Proc) {
		obj, _ := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindPVC, Namespace: "shop", Name: "bad"})
		if obj.(*platform.PersistentVolumeClaim).Status.VolumeName != "" {
			t.Error("claim with missing class bound")
		}
	})
	f.env.Run(100 * time.Millisecond)
}

func TestReplicationPluginConfiguresCG(t *testing.T) {
	f := newTwoSites(t)
	f.sites.Telemetry = telemetry.New(f.env, telemetry.Config{})
	f.createClaims(t, "shop", "sales", "stock")
	rp := f.createRG(t, "backup-shop", 0, "sales", "stock")

	f.env.Process("check", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
		if err != nil {
			t.Error(err)
			return
		}
		rg := obj.(*platform.ReplicationGroup)
		if rg.Status.Phase != platform.GroupReady {
			t.Errorf("phase = %s (%s)", rg.Status.Phase, rg.Status.Message)
		}
		if rg.Status.JournalID != "jnl-backup-shop-0" {
			t.Errorf("journal = %q", rg.Status.JournalID)
		}
		// One shared journal with both volumes: the consistency group.
		j, err := f.sites.MainArray.ShardedJournal(rg.Status.JournalID)
		if err != nil {
			t.Error(err)
			return
		}
		if len(j.Members()) != 2 {
			t.Errorf("journal members = %v", j.Members())
		}
		// Backup twins exist and are read-only; PVCs appear at backup
		// (Fig. 4).
		for _, name := range []string{"sales", "stock"} {
			tv, err := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", name))
			if err != nil {
				t.Errorf("backup volume: %v", err)
				continue
			}
			if _, err := tv.Write(p, 0, []byte{1}); !errors.Is(err, storage.ErrReadOnly) {
				t.Errorf("backup twin writable while replicating: write returned %v", err)
			}
			if _, err := f.sites.BackupAPI.Get(p, platform.ObjectKey{Kind: platform.KindPVC, Namespace: "shop", Name: name}); err != nil {
				t.Errorf("backup PVC missing: %v", err)
			}
		}
	})
	f.env.Run(0)
	groups := rp.Groups("backup-shop")
	if len(groups) != 1 {
		t.Fatalf("running groups = %d, want 1", len(groups))
	}
	if ns := rp.NamespaceOf(groups[0]); ns != "shop" {
		t.Errorf("NamespaceOf = %q, want shop", ns)
	}
	// Every configured engine registers its tenant's probes.
	if f.sites.Telemetry.Series("rpo", telemetry.L("tenant", "shop")) == nil {
		t.Error("rpo{tenant=shop} probe not registered")
	}
	// An unconfigured CR name answers nil without allocating: the fleet
	// benchmark polls Groups per tenant per tick while tenants come up.
	if got := rp.Groups("absent"); got != nil {
		t.Errorf("Groups(absent) = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = rp.Groups("absent") }); n != 0 {
		t.Errorf("Groups(absent) allocates %v per call, want 0", n)
	}
}

// TestOrphanEngineKeepsItsNamespace deletes a CR while its plugin is down, so
// the engine stays registered with no CR left to name its namespace:
// CheckNoOrphanGroups still names the tenant it outlived, which NamespaceOf
// reads from the registry's key, and a fresh plugin over the same registry
// tears the orphan down.
func TestOrphanEngineKeepsItsNamespace(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales", "stock")
	rp := f.createRG(t, "backup-shop", 0, "sales", "stock")
	rp.Stop()
	f.env.Process("delete", func(p *sim.Proc) {
		f.sites.MainAPI.Delete(p, groupKey("backup-shop"))
	})
	f.env.Run(f.env.Now() + time.Second)
	gone := func(string) bool { return false }
	vs := invariants.CheckNoOrphanGroups(rp.sites.Engines.Sorted(), rp.NamespaceOf, gone)
	if len(vs) != 1 || vs[0].Tenant != "shop" || !strings.Contains(vs[0].Detail, "outlived its tenant") {
		t.Fatalf("violations = %v, want one engine that outlived tenant shop", vs)
	}
	fresh := NewReplicationPlugin(f.env, f.sites, replication.Config{})
	fresh.Start()
	f.env.Run(f.env.Now() + time.Second)
	if vs := invariants.CheckNoOrphanGroups(fresh.sites.Engines.Sorted(), fresh.NamespaceOf, gone); len(vs) != 0 {
		t.Errorf("a fresh plugin left the orphan registered: %v", vs)
	}
	if res := f.sites.MainArray.Residue("jnl-backup-shop-"); len(res) != 0 {
		t.Errorf("the orphan's journal survives: %v", res)
	}
}

// setClaims rewrites the CR's claim list (what the operator does when the
// namespace's PVC set changes) and lets the plugin reconcile it.
func (f *twoSites) setClaims(t *testing.T, name string, pvcs ...string) *platform.ReplicationGroup {
	t.Helper()
	key := platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: name}
	f.env.Process("set-claims", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, key)
		if err != nil {
			t.Error(err)
			return
		}
		rg := obj.DeepCopy().(*platform.ReplicationGroup)
		rg.Spec.PVCNames = pvcs
		if err := f.sites.MainAPI.Update(p, rg); err != nil {
			t.Error(err)
		}
	})
	f.env.Run(f.env.Now() + time.Second)
	var rg *platform.ReplicationGroup
	f.env.Process("get", func(p *sim.Proc) {
		if obj, err := f.sites.MainAPI.Get(p, key); err != nil {
			t.Error(err)
		} else {
			rg = obj.(*platform.ReplicationGroup)
		}
	})
	f.env.Run(f.env.Now() + time.Millisecond)
	if rg == nil {
		t.Fatal("replication group gone")
	}
	return rg
}

// TestReplicationPluginFailsGroupOnUnprotectedClaim: a claim that joins the
// spec of a configured group is not an engine member — no journal, no backup
// twin — so the CR must say so instead of staying Ready. The engine keeps
// draining its members, a claim that leaves is not drift, and dropping the
// late claim brings the CR back.
func TestReplicationPluginFailsGroupOnUnprotectedClaim(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales", "stock")
	rp := f.createRG(t, "backup-shop", 0, "sales", "stock")
	f.createClaims(t, "shop", "audit")

	rg := f.setClaims(t, "backup-shop", "sales", "stock", "audit")
	if rg.Status.Phase != platform.GroupFailed || !strings.Contains(rg.Status.Message, "shop/audit") {
		t.Fatalf("late claim: phase = %s (%q), want Failed naming shop/audit", rg.Status.Phase, rg.Status.Message)
	}
	version := rg.ResourceVersion
	g := rp.Groups("backup-shop")[0]
	if len(g.Members()) != 2 || g.Stopped() {
		t.Fatalf("engine members = %v stopped = %v, want the original two still draining", g.Members(), g.Stopped())
	}
	f.env.Process("write", func(p *sim.Proc) {
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "sales"))
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x7E
		if _, err := v.Write(p, 3, buf); err != nil {
			t.Error(err)
			return
		}
		if !g.CatchUp(p) {
			t.Error("catch-up interrupted")
			return
		}
		tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", "sales"))
		if got := tv.Peek(3); got == nil || got[0] != 0x7E {
			t.Error("member write did not replicate while the group was Failed")
		}
	})
	f.env.Run(f.env.Now() + time.Second)
	f.env.Process("settled", func(p *sim.Proc) {
		obj, _ := f.sites.MainAPI.Get(p, rg.Key())
		if got := obj.GetMeta().ResourceVersion; got != version {
			t.Errorf("Failed group rewritten while idle: version %d -> %d", version, got)
		}
	})
	f.env.Run(f.env.Now() + time.Millisecond)

	if rg := f.setClaims(t, "backup-shop", "sales", "stock"); rg.Status.Phase != platform.GroupReady {
		t.Fatalf("late claim dropped: phase = %s (%q), want Ready", rg.Status.Phase, rg.Status.Message)
	}
	if rg := f.setClaims(t, "backup-shop", "sales"); rg.Status.Phase != platform.GroupReady {
		t.Fatalf("member claim removed: phase = %s (%q), want Ready (teardown shrinks the list)", rg.Status.Phase, rg.Status.Message)
	}
}

func TestReplicationPluginReplicatesData(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales")
	// Preload data before replication so initial copy matters.
	f.env.Process("preload", func(p *sim.Proc) {
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "sales"))
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x42
		v.Write(p, 7, buf)
	})
	f.env.Run(0)
	rp := f.createRG(t, "backup-shop", 0, "sales")
	// Write more after replication is up; drain should carry it.
	f.env.Process("write", func(p *sim.Proc) {
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "sales"))
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x43
		v.Write(p, 8, buf)
		for _, g := range rp.Groups("backup-shop") {
			g.CatchUp(p)
		}
	})
	f.env.Run(10 * time.Second)
	tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", "sales"))
	if tv.Peek(7)[0] != 0x42 {
		t.Fatal("initial copy missed preloaded block")
	}
	if tv.Peek(8)[0] != 0x43 {
		t.Fatal("drain missed post-start write")
	}
}

func TestReplicationPluginTeardownOnDelete(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales")
	rp := f.createRG(t, "backup-shop", 0, "sales")
	if len(rp.Groups("backup-shop")) != 1 {
		t.Fatal("group not configured")
	}
	journalID := rp.Groups("backup-shop")[0].JournalID()
	f.env.Process("delete", func(p *sim.Proc) {
		f.sites.MainAPI.Delete(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
	})
	f.env.Run(5 * time.Second)
	if len(rp.Groups("backup-shop")) != 0 {
		t.Fatal("groups survive CR deletion")
	}
	if res := f.sites.MainArray.Residue(journalID); len(res) != 0 {
		t.Fatalf("journal survives CR deletion: %v", res)
	}
	// Source volume is usable again (journal detached).
	v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "sales"))
	if v.Journal() != nil {
		t.Fatal("source volume still journal-attached")
	}
}

// createRG posts a ReplicationGroup CR requesting a journal of `shards` shards
// (0: the default single shared journal) and runs the plugin until Ready.
func (f *twoSites) createRG(t *testing.T, name string, shards int, pvcs ...string) *ReplicationPlugin {
	t.Helper()
	rp := NewReplicationPlugin(f.env, f.sites, replication.Config{})
	rp.Start()
	f.env.Process("rg", func(p *sim.Proc) {
		err := f.sites.MainAPI.Create(p, &platform.ReplicationGroup{
			Meta: platform.Meta{Kind: platform.KindReplicationGroup, Name: name},
			Spec: platform.ReplicationGroupSpec{
				SourceNamespace: "shop",
				PVCNames:        pvcs,
				JournalShards:   shards,
			},
		})
		if err != nil {
			t.Error(err)
		}
	})
	f.env.Run(5 * time.Second)
	return rp
}

// TestReplicationPluginShardedJournal reconciles a CR with JournalShards=4
// into one sharded consistency group drained by a multi-lane engine, checks
// records replicate, and verifies teardown removes the shard journals.
func TestReplicationPluginShardedJournal(t *testing.T) {
	f := newTwoSites(t)
	pvcs := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	f.createClaims(t, "shop", pvcs...)
	rp := f.createRG(t, "backup-shop", 4, pvcs...)

	groups := rp.Groups("backup-shop")
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	sg := groups[0]
	if sg.Lanes() != 4 {
		t.Fatalf("lanes = %d, want 4", sg.Lanes())
	}
	sj, err := f.sites.MainArray.ShardedJournal("jnl-backup-shop-0")
	if err != nil {
		t.Fatalf("sharded journal not registered: %v", err)
	}
	if len(sj.Members()) != len(pvcs) || sj.ShardCount() != 4 {
		t.Fatalf("journal members=%d shards=%d", len(sj.Members()), sj.ShardCount())
	}
	f.env.Process("check", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
		if err != nil {
			t.Error(err)
			return
		}
		rg := obj.(*platform.ReplicationGroup)
		if rg.Status.Phase != platform.GroupReady || rg.Status.JournalID != "jnl-backup-shop-0" {
			t.Errorf("status = %+v", rg.Status)
		}
		// Writes replicate through the lanes to the read-only twins.
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "d0"))
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x5A
		if _, err := v.Write(p, 7, buf); err != nil {
			t.Error(err)
			return
		}
		if !sg.CatchUp(p) {
			t.Error("catch-up interrupted")
			return
		}
		tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", "d0"))
		if got := tv.Peek(7); got[0] != 0x5A {
			t.Errorf("record not applied at backup: %x", got[0])
		}
	})
	f.env.Run(0)

	f.env.Process("delete", func(p *sim.Proc) {
		f.sites.MainAPI.Delete(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
	})
	f.env.Run(5 * time.Second)
	if len(rp.Groups("backup-shop")) != 0 {
		t.Fatal("groups survive CR deletion")
	}
	if _, err := f.sites.MainArray.ShardedJournal("jnl-backup-shop-0"); err == nil {
		t.Fatal("sharded journal survives CR deletion")
	}
	for _, name := range pvcs {
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", name))
		if v.Journal() != nil {
			t.Fatalf("%s still journal-attached after teardown", name)
		}
	}
}

// TestProvisionerUnwindsDeletedClaim pins the reclaim side of dynamic
// provisioning: deleting a bound PVC must delete the PV object and return
// the array volume (and its snapshots) to the free lists; a volume still
// attached to a journal is retried until replication teardown detaches it.
func TestProvisionerUnwindsDeletedClaim(t *testing.T) {
	f := newTwoSites(t)
	f.createClaims(t, "shop", "sales", "stock")
	if before := f.sites.MainArray.Residue(""); len(before) != 2 {
		t.Fatalf("array objects before = %v, want the two volumes", before)
	}
	// A snapshot on the volume must not block the unwind.
	if _, err := f.sites.MainArray.CreateSnapshot("snap-sales", VolumeIDForClaim("shop", "sales")); err != nil {
		t.Fatal(err)
	}
	// Attach the stock volume to a journal: its unwind must stall (retry)
	// until the journal releases it.
	if _, err := f.sites.MainArray.CreateConsistencyGroup("jnl-hold",
		[]storage.VolumeID{VolumeIDForClaim("shop", "stock")}, 1); err != nil {
		t.Fatal(err)
	}
	f.env.Process("delete", func(p *sim.Proc) {
		for _, name := range []string{"sales", "stock"} {
			f.sites.MainAPI.Delete(p, platform.ObjectKey{Kind: platform.KindPVC, Namespace: "shop", Name: name})
		}
	})
	f.env.Run(f.env.Now() + time.Second)
	if _, err := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "sales")); err == nil {
		t.Fatal("sales volume not reclaimed after claim deletion")
	}
	if _, err := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "stock")); err != nil {
		t.Fatal("attached stock volume deleted while journaled")
	}
	// Release the journal: the provisioner's backoff retry finishes the job.
	if err := f.sites.MainArray.DeleteShardedJournal("jnl-hold"); err != nil {
		t.Fatal(err)
	}
	f.env.Run(f.env.Now() + 5*time.Second)
	if res := f.sites.MainArray.Residue("pvc-shop-"); len(res) != 0 {
		t.Fatalf("residue after unwind: %v", res)
	}
	f.env.Process("check-pv", func(p *sim.Proc) {
		for _, name := range []string{"sales", "stock"} {
			if _, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindPV, Name: PVNameForClaim("shop", name)}); err == nil {
				t.Errorf("PV for %s survived the unwind", name)
			}
		}
	})
	f.env.Run(0)
	if res := f.sites.MainArray.Residue(""); len(res) != 0 {
		t.Fatalf("array not clean after unwind: %v", res)
	}
}

// setRGShards patches the CR's JournalShards (what the operator does when
// the ShardsLabel changes) and lets the plugin reconcile.
func (f *twoSites) setRGShards(t *testing.T, name string, shards int) {
	t.Helper()
	f.env.Process("respec", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: name})
		if err != nil {
			t.Error(err)
			return
		}
		rg := obj.DeepCopy().(*platform.ReplicationGroup)
		rg.Spec.JournalShards = shards
		if err := f.sites.MainAPI.Update(p, rg); err != nil {
			t.Error(err)
		}
	})
	f.env.Run(f.env.Now() + 5*time.Second)
}

// TestReplicationPluginReshardsOnSpecChange drives a live 2->4->2 reshard
// through the CR: the SAME engine reconfigures in place, replication keeps
// working across both transitions, and the shard journals the shrink drops
// leave the array.
func TestReplicationPluginReshardsOnSpecChange(t *testing.T) {
	f := newTwoSites(t)
	pvcs := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	f.createClaims(t, "shop", pvcs...)
	rp := f.createRG(t, "backup-shop", 2, pvcs...)
	before := rp.Groups("backup-shop")[0]
	if before.Lanes() != 2 {
		t.Fatalf("lanes = %d, want 2", before.Lanes())
	}

	f.setRGShards(t, "backup-shop", 4)
	after := rp.Groups("backup-shop")[0]
	if after != before {
		t.Fatal("grow replaced the engine; it must reshard in place")
	}
	if before.Lanes() != 4 {
		t.Fatalf("lanes after grow = %d, want 4", before.Lanes())
	}
	sj, err := f.sites.MainArray.ShardedJournal("jnl-backup-shop-0")
	if err != nil {
		t.Fatal(err)
	}
	if sj.ShardCount() != 4 || sj.Reshards() != 1 {
		t.Fatalf("journal shards=%d reshards=%d", sj.ShardCount(), sj.Reshards())
	}

	// Replication still works on the widened lane set.
	f.env.Process("write", func(p *sim.Proc) {
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "d3"))
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x77
		if _, err := v.Write(p, 9, buf); err != nil {
			t.Error(err)
			return
		}
		if !before.AwaitReshard(p) || !before.CatchUp(p) {
			t.Error("engine never settled after grow")
		}
	})
	f.env.Run(0)
	tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", "d3"))
	if got := tv.Peek(9); got[0] != 0x77 {
		t.Fatalf("write after grow not replicated: %x", got[0])
	}

	f.setRGShards(t, "backup-shop", 2)
	f.env.Process("settle", func(p *sim.Proc) { before.AwaitReshard(p) })
	f.env.Run(0)
	if before.Lanes() != 2 {
		t.Fatalf("lanes after shrink = %d, want 2", before.Lanes())
	}
	for _, k := range []int{2, 3} {
		if res := f.sites.MainArray.Residue(fmt.Sprintf("jnl-backup-shop-0#s%d", k)); len(res) != 0 {
			t.Fatalf("retired shard journal #s%d survives the shrink: %v", k, res)
		}
	}
}

// TestReplicationPluginGrowsFromOneLane reshards a group that started on
// the paper's single-journal, single-lane configuration (shards=1): the same
// engine must widen in place, with writes from before and after the grow all
// reaching the backup.
func TestReplicationPluginGrowsFromOneLane(t *testing.T) {
	f := newTwoSites(t)
	pvcs := []string{"d0", "d1", "d2", "d3"}
	f.createClaims(t, "shop", pvcs...)
	rp := f.createRG(t, "backup-shop", 1, pvcs...)
	sg := rp.Groups("backup-shop")[0]
	if sg.Lanes() != 1 {
		t.Fatalf("shards=1 engine runs %d lanes", sg.Lanes())
	}

	// Backlog some writes so the grow happens with records pending.
	f.env.Process("pre-writes", func(p *sim.Proc) {
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		for i, name := range pvcs {
			buf[0] = byte(0x10 + i)
			v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", name))
			if _, err := v.Write(p, int64(i), buf); err != nil {
				t.Error(err)
			}
		}
	})
	f.env.Run(0)
	if sg.AppliedRecords() != int64(len(pvcs)) || sg.EpochCommits() != 0 {
		t.Fatalf("one lane applied %d records in %d epoch commits, want %d in 0 (the lane commits its own batches)",
			sg.AppliedRecords(), sg.EpochCommits(), len(pvcs))
	}

	f.setRGShards(t, "backup-shop", 4)
	if rp.Groups("backup-shop")[0] != sg {
		t.Fatal("grow from one lane replaced the engine; it must reshard in place")
	}
	if sg.Lanes() != 4 {
		t.Fatalf("lanes = %d, want 4", sg.Lanes())
	}
	if rp.NamespaceOf(sg) != "shop" {
		t.Fatal("namespace mapping lost across the grow")
	}
	f.env.Process("post-writes", func(p *sim.Proc) {
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		buf[0] = 0x99
		v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", "d0"))
		if _, err := v.Write(p, 17, buf); err != nil {
			t.Error(err)
			return
		}
		if !sg.AwaitReshard(p) || !sg.CatchUp(p) {
			t.Error("widened engine never caught up")
		}
	})
	f.env.Run(0)
	for i, name := range pvcs {
		tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", name))
		if got := tv.Peek(int64(i)); got[0] != byte(0x10+i) {
			t.Fatalf("pre-grow write to %s lost: %x", name, got[0])
		}
	}
	tv, _ := f.sites.BackupArray.Volume(VolumeIDForClaim("shop", "d0"))
	if got := tv.Peek(17); got[0] != 0x99 {
		t.Fatalf("post-grow write lost: %x", got[0])
	}

	// Teardown after the grow reclaims every shard journal.
	f.env.Process("delete", func(p *sim.Proc) {
		f.sites.MainAPI.Delete(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
	})
	f.env.Run(f.env.Now() + 5*time.Second)
	if res := f.sites.MainArray.Residue("jnl-backup-shop-"); len(res) != 0 {
		t.Fatalf("journal residue after teardown: %v", res)
	}
}

// TestReplicationPluginUnchangedReconcileIsNoop pins the guarantee E11-E14
// rest on: a reconcile with the shard count unchanged performs zero
// migration and zero API writes.
func TestReplicationPluginUnchangedReconcileIsNoop(t *testing.T) {
	f := newTwoSites(t)
	pvcs := []string{"d0", "d1", "d2", "d3"}
	f.createClaims(t, "shop", pvcs...)
	rp := f.createRG(t, "backup-shop", 2, pvcs...)
	engine := rp.Groups("backup-shop")[0]
	sj, err := f.sites.MainArray.ShardedJournal("jnl-backup-shop-0")
	if err != nil {
		t.Fatal(err)
	}
	var versionAfterTouch int64
	// Touch the CR without changing the spec: the plugin reconcile runs and
	// must not reshard, migrate, or write status.
	f.env.Process("touch", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
		if err != nil {
			t.Error(err)
			return
		}
		obj = obj.DeepCopy()
		if err := f.sites.MainAPI.Update(p, obj); err != nil {
			t.Error(err)
			return
		}
		versionAfterTouch = obj.GetMeta().ResourceVersion
	})
	f.env.Run(f.env.Now() + 2*time.Second)
	if got := rp.Groups("backup-shop")[0]; got != engine {
		t.Fatal("unchanged reconcile replaced the engine")
	}
	if sj.Reshards() != 0 || sj.MovedRecords() != 0 || sj.MovedVolumes() != 0 {
		t.Fatalf("unchanged reconcile migrated: reshards=%d movedRecs=%d movedVols=%d",
			sj.Reshards(), sj.MovedRecords(), sj.MovedVolumes())
	}
	f.env.Process("verify-version", func(p *sim.Proc) {
		obj, err := f.sites.MainAPI.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
		if err != nil {
			t.Error(err)
			return
		}
		if v := obj.GetMeta().ResourceVersion; v != versionAfterTouch {
			t.Errorf("CR version moved %d -> %d: the no-op reconcile wrote status", versionAfterTouch, v)
		}
	})
	f.env.Run(0)
}

// TestReplicationPluginTeardownMidReshard deletes the CR while a reshard's
// migration window is still open: every shard journal — active, added, and
// retired — must come back off the array.
func TestReplicationPluginTeardownMidReshard(t *testing.T) {
	f := newTwoSites(t)
	pvcs := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	f.createClaims(t, "shop", pvcs...)
	rp := f.createRG(t, "backup-shop", 4, pvcs...)
	sg := rp.Groups("backup-shop")[0]
	// Backlog writes, then shrink and delete immediately — the retired
	// shards are still waiting on their staged records when the CR goes.
	f.env.Process("churn", func(p *sim.Proc) {
		buf := make([]byte, f.sites.MainArray.Config().BlockSize)
		for i := 0; i < 48; i++ {
			v, _ := f.sites.MainArray.Volume(VolumeIDForClaim("shop", pvcs[i%len(pvcs)]))
			if _, err := v.Write(p, int64(i/len(pvcs)), buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	f.env.Run(0)
	f.setRGShards(t, "backup-shop", 2)
	f.env.Process("delete", func(p *sim.Proc) {
		f.sites.MainAPI.Delete(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: "backup-shop"})
	})
	f.env.Run(f.env.Now() + 5*time.Second)
	if !sg.Stopped() {
		t.Fatal("engine still running after CR deletion")
	}
	if res := f.sites.MainArray.Residue("jnl-backup-shop-"); len(res) != 0 {
		t.Fatalf("journal residue after mid-reshard teardown: %v", res)
	}
}
