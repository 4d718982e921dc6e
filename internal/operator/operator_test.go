package operator

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
)

type fixture struct {
	env *sim.Env
	api *platform.APIServer
	op  *Operator
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	api := platform.NewAPIServer(env, platform.APIConfig{})
	op := New(env, api, cfg)
	op.Start()
	return &fixture{env: env, api: api, op: op}
}

// runFor advances the simulation by d regardless of pending retry loops.
func (f *fixture) runFor(d time.Duration) { f.env.Run(f.env.Now() + d) }

func (f *fixture) createNamespaceWithPVCs(t *testing.T, ns string, labels map[string]string, pvcs ...string) {
	t.Helper()
	f.env.Process("setup", func(p *sim.Proc) {
		if err := f.api.Create(p, &platform.Namespace{
			Meta: platform.Meta{Kind: platform.KindNamespace, Name: ns, Labels: labels},
		}); err != nil {
			t.Error(err)
		}
		for _, name := range pvcs {
			if err := f.api.Create(p, &platform.PersistentVolumeClaim{
				Meta: platform.Meta{Kind: platform.KindPVC, Namespace: ns, Name: name},
				Spec: platform.PVCSpec{StorageClassName: "fast", SizeBlocks: 128},
			}); err != nil {
				t.Error(err)
			}
		}
	})
	f.runFor(time.Second)
}

func (f *fixture) group(t *testing.T, ns string) (*platform.ReplicationGroup, bool) {
	t.Helper()
	var rg *platform.ReplicationGroup
	f.env.Process("get", func(p *sim.Proc) {
		obj, err := f.api.Get(p, platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: GroupNameFor(ns)})
		if err == nil {
			rg = obj.(*platform.ReplicationGroup)
		}
	})
	f.runFor(100 * time.Millisecond)
	return rg, rg != nil
}

func (f *fixture) setLabel(t *testing.T, ns string, labels map[string]string) {
	t.Helper()
	f.env.Process("label", func(p *sim.Proc) {
		obj, err := f.api.Get(p, platform.ObjectKey{Kind: platform.KindNamespace, Name: ns})
		if err != nil {
			t.Error(err)
			return
		}
		n := obj.DeepCopy().(*platform.Namespace)
		n.Labels = labels
		if err := f.api.Update(p, n); err != nil {
			t.Error(err)
		}
	})
	f.runFor(time.Second)
}

func TestTagCreatesReplicationGroup(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales", "stock")
	rg, ok := f.group(t, "shop")
	if !ok {
		t.Fatal("no ReplicationGroup created")
	}
	if rg.Spec.SourceNamespace != "shop" {
		t.Fatalf("source ns = %s", rg.Spec.SourceNamespace)
	}
	if len(rg.Spec.PVCNames) != 2 || rg.Spec.PVCNames[0] != "sales" || rg.Spec.PVCNames[1] != "stock" {
		t.Fatalf("pvc names = %v", rg.Spec.PVCNames)
	}
	if f.op.Configured() != 1 {
		t.Fatalf("configured = %d", f.op.Configured())
	}
}

func TestUntaggedNamespaceIgnored(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", nil, "sales")
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("ReplicationGroup created without tag")
	}
}

func TestWrongTagValueIgnored(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: "SomethingElse"}, "sales")
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("ReplicationGroup created for wrong tag value")
	}
}

func TestTagAfterCreation(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", nil, "sales", "stock")
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("premature group")
	}
	// The demo's actual gesture: tag an existing namespace (Fig. 3).
	f.setLabel(t, "shop", map[string]string{Tag: TagValue})
	rg, ok := f.group(t, "shop")
	if !ok {
		t.Fatal("tagging did not create the group")
	}
	if len(rg.Spec.PVCNames) != 2 {
		t.Fatalf("pvc names = %v", rg.Spec.PVCNames)
	}
}

func TestUntagRemovesGroup(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales")
	if _, ok := f.group(t, "shop"); !ok {
		t.Fatal("group missing")
	}
	w := f.api.Watch(platform.KindReplicationGroup)
	f.setLabel(t, "shop", nil)
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("group survives untagging")
	}
	var deletes int
	f.env.Process("drain", func(p *sim.Proc) {
		for w.Pending() > 0 {
			if ev := w.Next(p); ev.Type == platform.Deleted {
				deletes++
			}
		}
	})
	f.runFor(0)
	if deletes != 1 {
		t.Fatalf("untagging deleted the group %d times, want 1", deletes)
	}
}

func TestNewPVCExtendsGroup(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales")
	rg, _ := f.group(t, "shop")
	if len(rg.Spec.PVCNames) != 1 {
		t.Fatalf("initial pvc names = %v", rg.Spec.PVCNames)
	}
	// A new claim appears (say, a third database); the operator's PVC
	// watch must extend the group.
	f.env.Process("pvc", func(p *sim.Proc) {
		f.api.Create(p, &platform.PersistentVolumeClaim{
			Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "shop", Name: "audit"},
			Spec: platform.PVCSpec{SizeBlocks: 64},
		})
	})
	f.runFor(time.Second)
	rg, _ = f.group(t, "shop")
	if len(rg.Spec.PVCNames) != 2 {
		t.Fatalf("pvc names after new claim = %v", rg.Spec.PVCNames)
	}
}

func TestTaggedEmptyNamespaceRetries(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}) // no PVCs
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("group created for empty namespace")
	}
	// Once a PVC shows up, the retry (or PVC watch) succeeds.
	f.env.Process("pvc", func(p *sim.Proc) {
		f.api.Create(p, &platform.PersistentVolumeClaim{
			Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "shop", Name: "sales"},
			Spec: platform.PVCSpec{SizeBlocks: 64},
		})
	})
	f.runFor(2 * time.Second)
	if _, ok := f.group(t, "shop"); !ok {
		t.Fatal("group not created after PVC appeared")
	}
}

func TestNamespaceDeletionRemovesGroup(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales")
	f.env.Process("del", func(p *sim.Proc) {
		f.api.Delete(p, platform.ObjectKey{Kind: platform.KindNamespace, Name: "shop"})
	})
	f.runFor(time.Second)
	if _, ok := f.group(t, "shop"); ok {
		t.Fatal("group survives namespace deletion")
	}
}

func TestOperatorIdempotentOnRepeatedEvents(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales")
	// Touch the namespace repeatedly; exactly one group, one create.
	for i := 0; i < 3; i++ {
		f.setLabel(t, "shop", map[string]string{Tag: TagValue, "touch": string(rune('a' + i))})
	}
	if f.op.Configured() != 1 {
		t.Fatalf("configured = %d, want 1", f.op.Configured())
	}
}

// TestLostCreateRaceIsNotAConfiguration: a reconcile whose Create finds the
// ReplicationGroup already there (another writer's Create landed while this
// one was in flight) configured nothing, so Configured stays where it was.
func TestLostCreateRaceIsNotAConfiguration(t *testing.T) {
	env := sim.NewEnv(1)
	api := platform.NewAPIServer(env, platform.APIConfig{})
	op := New(env, api, Config{}) // not started: the test drives reconcile
	f := &fixture{env: env, api: api, op: op}
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue}, "sales")
	var err error
	env.Process("other-writer", func(p *sim.Proc) {
		err = api.Create(p, &platform.ReplicationGroup{
			Meta: platform.Meta{Kind: platform.KindReplicationGroup, Name: GroupNameFor("shop")},
		})
	})
	env.Process("reconcile", func(p *sim.Proc) {
		if err := op.reconcile(p, platform.ObjectKey{Kind: platform.KindNamespace, Name: "shop"}); err != nil {
			t.Errorf("reconcile: %v", err)
		}
	})
	f.runFor(time.Second)
	if err != nil {
		t.Fatalf("the other writer's create: %v", err)
	}
	if _, ok := f.group(t, "shop"); !ok {
		t.Fatal("no ReplicationGroup")
	}
	if got := op.Configured(); got != 0 {
		t.Fatalf("configured = %d after losing the create race, want 0", got)
	}
}

// TestShardsLabelOverridesJournalShards pins the per-tenant shard count: the
// ShardsLabel on a namespace sets the ReplicationGroup's JournalShards; an
// absent or unparsable value leaves it 0, the single shared journal.
func TestShardsLabelOverridesJournalShards(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "sharded",
		map[string]string{Tag: TagValue, ShardsLabel: "8"}, "sales", "stock")
	rg, ok := f.group(t, "sharded")
	if !ok {
		t.Fatal("no ReplicationGroup created")
	}
	if rg.Spec.JournalShards != 8 {
		t.Fatalf("journal shards = %d, want 8 (the label)", rg.Spec.JournalShards)
	}

	f.createNamespaceWithPVCs(t, "plain", map[string]string{Tag: TagValue}, "sales")
	rg, ok = f.group(t, "plain")
	if !ok {
		t.Fatal("no ReplicationGroup for plain namespace")
	}
	if rg.Spec.JournalShards != 0 {
		t.Fatalf("journal shards = %d, want 0 without a label", rg.Spec.JournalShards)
	}

	f.createNamespaceWithPVCs(t, "bogus",
		map[string]string{Tag: TagValue, ShardsLabel: "not-a-number"}, "sales")
	rg, ok = f.group(t, "bogus")
	if !ok {
		t.Fatal("no ReplicationGroup for bogus-label namespace")
	}
	if rg.Spec.JournalShards != 0 {
		t.Fatalf("journal shards = %d, want 0 on unparsable label", rg.Spec.JournalShards)
	}
}

// TestShardsLabelUpdatePropagates pins the reshard entry point: changing
// (or clearing) the backup-shards label on an already-configured namespace
// must update the existing ReplicationGroup's JournalShards instead of
// being silently ignored.
func TestShardsLabelUpdatePropagates(t *testing.T) {
	f := newFixture(t, Config{})
	f.createNamespaceWithPVCs(t, "shop", map[string]string{Tag: TagValue, ShardsLabel: "2"}, "sales", "stock")
	rg, ok := f.group(t, "shop")
	if !ok || rg.Spec.JournalShards != 2 {
		t.Fatalf("initial group shards = %+v", rg)
	}
	setLabel := func(val string) {
		f.env.Process("relabel", func(p *sim.Proc) {
			obj, err := f.api.Get(p, platform.ObjectKey{Kind: platform.KindNamespace, Name: "shop"})
			if err != nil {
				t.Error(err)
				return
			}
			ns := obj.DeepCopy().(*platform.Namespace)
			if val == "" {
				delete(ns.Labels, ShardsLabel)
			} else {
				ns.Labels[ShardsLabel] = val
			}
			if err := f.api.Update(p, ns); err != nil {
				t.Error(err)
			}
		})
		f.runFor(time.Second)
	}
	setLabel("4")
	if rg, ok = f.group(t, "shop"); !ok || rg.Spec.JournalShards != 4 {
		t.Fatalf("after label 4: %+v", rg.Spec)
	}
	// Clearing the label falls back to the single shared journal (0).
	setLabel("")
	if rg, ok = f.group(t, "shop"); !ok || rg.Spec.JournalShards != 0 {
		t.Fatalf("after label cleared: %+v", rg.Spec)
	}
	// So does an unparsable label: back up to 4, then garbage.
	setLabel("4")
	setLabel("nonsense")
	if rg, ok = f.group(t, "shop"); !ok || rg.Spec.JournalShards != 0 {
		t.Fatalf("after bad label: %+v", rg.Spec)
	}
}
