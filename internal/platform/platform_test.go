package platform

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func run(t *testing.T, fn func(p *sim.Proc, env *sim.Env, api *APIServer)) *sim.Env {
	t.Helper()
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	env.Process("test", func(p *sim.Proc) { fn(p, env, api) })
	env.Run(0)
	return env
}

func pvc(ns, name, class string, size int64) *PersistentVolumeClaim {
	return &PersistentVolumeClaim{
		Meta: Meta{Kind: KindPVC, Namespace: ns, Name: name},
		Spec: PVCSpec{StorageClassName: class, SizeBlocks: size},
	}
}

func TestCreateGetRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		if err := api.Create(p, pvc("shop", "sales", "fast", 100)); err != nil {
			t.Fatal(err)
		}
		obj, err := api.Get(p, ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"})
		if err != nil {
			t.Fatal(err)
		}
		got := obj.(*PersistentVolumeClaim)
		if got.Spec.StorageClassName != "fast" || got.Spec.SizeBlocks != 100 {
			t.Fatalf("spec = %+v", got.Spec)
		}
		if got.ResourceVersion == 0 {
			t.Fatal("no resource version assigned")
		}
	})
}

func TestCreateDuplicateFails(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		api.Create(p, pvc("shop", "sales", "fast", 100))
		if err := api.Create(p, pvc("shop", "sales", "fast", 100)); !errors.Is(err, ErrExists) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestCreateValidation(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		if err := api.Create(p, &Namespace{}); err == nil {
			t.Fatal("nameless object accepted")
		}
	})
}

// The store detaches the writer (one copy per write) and shares with every
// reader: mutating what was passed to Create/Update never reaches the store,
// and reads hand out the stored object itself.
func TestWritesDetachCallerReadsShare(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		mine := pvc("shop", "sales", "fast", 100)
		api.Create(p, mine)
		key := mine.Key()
		mine.Spec.SizeBlocks = 999 // still the caller's object
		a, _ := api.Get(p, key)
		if a.(*PersistentVolumeClaim).Spec.SizeBlocks != 100 {
			t.Fatal("store aliased the object passed to Create")
		}
		if b, _ := api.Get(p, key); b != a {
			t.Fatal("two reads of one version returned different objects")
		}
		if l := api.List(p, KindPVC, "shop"); len(l) != 1 || l[0] != a {
			t.Fatal("List did not return the stored object")
		}
		mine.Spec.SizeBlocks = 200
		if err := api.Update(p, mine); err != nil {
			t.Fatal(err)
		}
		mine.Spec.SizeBlocks = 999
		c, _ := api.Get(p, key)
		if c == a || c.(*PersistentVolumeClaim).Spec.SizeBlocks != 200 {
			t.Fatal("Update did not install a fresh detached object")
		}
		if a.(*PersistentVolumeClaim).Spec.SizeBlocks != 100 {
			t.Fatal("Update mutated the previous stored version in place")
		}
	})
}

// Writing back a Get result mutated in place is the one misuse the store can
// see; it must be loud.
func TestUpdateWithStoredObjectPanics(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		api.Create(p, pvc("shop", "sales", "fast", 100))
		obj, _ := api.Get(p, ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"})
		defer func() {
			if recover() == nil {
				t.Error("Update with the stored object did not panic")
			}
		}()
		api.Update(p, obj)
	})
}

func TestUpdateConflictOnStaleRV(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		api.Create(p, pvc("shop", "sales", "fast", 100))
		key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
		cur, _ := api.Get(p, key)
		a, b := cur.DeepCopy(), cur.DeepCopy()
		a.(*PersistentVolumeClaim).Status.Phase = ClaimBound
		if err := api.Update(p, a); err != nil {
			t.Fatal(err)
		}
		b.(*PersistentVolumeClaim).Status.Phase = ClaimPending
		if err := api.Update(p, b); !errors.Is(err, ErrConflict) {
			t.Fatalf("stale update: %v", err)
		}
	})
}

func TestUpdateMissingObject(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		if err := api.Update(p, pvc("shop", "ghost", "fast", 1)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestListFiltersByKindAndNamespace(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		api.Create(p, pvc("shop", "stock", "fast", 1))
		api.Create(p, pvc("other", "x", "fast", 1))
		api.Create(p, &Namespace{Meta: Meta{Kind: KindNamespace, Name: "shop"}})
		got := api.List(p, KindPVC, "shop")
		if len(got) != 2 {
			t.Fatalf("list = %d objects", len(got))
		}
		// Sorted by name.
		if got[0].GetMeta().Name != "sales" || got[1].GetMeta().Name != "stock" {
			t.Fatalf("order: %s, %s", got[0].GetMeta().Name, got[1].GetMeta().Name)
		}
		if all := api.List(p, KindPVC, ""); len(all) != 3 {
			t.Fatalf("all PVCs = %d", len(all))
		}
	})
}

func TestDeleteAndNotFound(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
		if err := api.Delete(p, key); err != nil {
			t.Fatal(err)
		}
		if _, err := api.Get(p, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete: %v", err)
		}
		if err := api.Delete(p, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete: %v", err)
		}
	})
}

func TestWatchDeliversLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	w := api.Watch(KindPVC)
	var events []EventType
	env.Process("watcher", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			events = append(events, w.Next(p).Type)
		}
	})
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
		obj, _ := api.Get(p, key)
		obj = obj.DeepCopy()
		obj.(*PersistentVolumeClaim).Status.Phase = ClaimBound
		api.Update(p, obj)
		api.Delete(p, key)
	})
	env.Run(0)
	want := []EventType{Added, Modified, Deleted}
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestWatchFiltersKind(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	w := api.Watch(KindNamespace)
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		api.Create(p, &Namespace{Meta: Meta{Kind: KindNamespace, Name: "shop"}})
	})
	env.Run(0)
	if w.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (namespace only)", w.Pending())
	}
}

// Every watcher of a write — kind-wide or keyed — receives the stored object
// itself, detached from the writer.
func TestWatchEventCarriesStoredObject(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	mine := pvc("shop", "sales", "fast", 100)
	ws := []*Watch{api.Watch(KindPVC), api.Watch(KindPVC), api.WatchKey(mine.Key())}
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, mine)
		mine.Spec.SizeBlocks = 1
	})
	env.Run(0)
	env.Process("check", func(p *sim.Proc) {
		cur, _ := api.Get(p, mine.Key())
		for i, w := range ws {
			if got := w.Next(p).Object; got != cur {
				t.Errorf("watcher %d: event object is not the stored object", i)
			}
		}
		if cur.(*PersistentVolumeClaim).Spec.SizeBlocks != 100 {
			t.Error("watch event aliased the writer's object")
		}
	})
	env.Run(0)
}

func TestAPICallsConsumeTimeAndCount(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{CallLatency: time.Millisecond})
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		api.List(p, KindPVC, "")
	})
	end := env.Run(0)
	if end != 2*time.Millisecond {
		t.Fatalf("2 calls took %v, want 2ms", end)
	}
	if api.Calls() != 2 {
		t.Fatalf("calls = %d", api.Calls())
	}
}

// countingReconciler tracks reconciled keys and can fail N times per key.
type countingReconciler struct {
	seen      map[ObjectKey]int
	failTimes int
}

func (r *countingReconciler) Reconcile(p *sim.Proc, key ObjectKey) error {
	if r.seen == nil {
		r.seen = make(map[ObjectKey]int)
	}
	r.seen[key]++
	if r.seen[key] <= r.failTimes {
		return errors.New("transient")
	}
	return nil
}

func TestControllerReconcilesOnEvents(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	c := NewController(env, api, "test", KindPVC, nil, rec, ControllerConfig{})
	c.Start()
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		api.Create(p, pvc("shop", "stock", "fast", 1))
	})
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	if len(rec.seen) != 2 {
		t.Fatalf("reconciled %d keys, want 2", len(rec.seen))
	}
	if c.Reconciles() != 2 || c.Errors() != 0 {
		t.Fatalf("reconciles=%d errors=%d", c.Reconciles(), c.Errors())
	}
}

func TestControllerRetriesWithBackoff(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{failTimes: 3}
	c := NewController(env, api, "test", KindPVC, nil, rec,
		ControllerConfig{RetryDelay: 5 * time.Millisecond})
	c.Start()
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
	})
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
	if rec.seen[key] != 4 { // 3 failures + 1 success
		t.Fatalf("attempts = %d, want 4", rec.seen[key])
	}
	if c.Errors() != 3 {
		t.Fatalf("errors = %d", c.Errors())
	}
}

func TestControllerDeduplicatesQueue(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	c := NewController(env, api, "test", KindPVC, nil, rec, ControllerConfig{})
	key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
	for i := 0; i < 10; i++ {
		c.Enqueue(key)
	}
	if c.QueueLen() != 1 {
		t.Fatalf("queue = %d, want deduped 1", c.QueueLen())
	}
	c.Start()
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	if rec.seen[key] != 1 {
		t.Fatalf("reconciled %d times, want 1", rec.seen[key])
	}
}

func TestControllerCustomMapFn(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	// Map namespace events to a ReplicationGroup key — the NSO pattern.
	mapFn := func(ev Event) (ObjectKey, bool) {
		return ObjectKey{Kind: KindReplicationGroup, Name: ev.Object.GetMeta().Name}, true
	}
	c := NewController(env, api, "nso", KindNamespace, mapFn, rec, ControllerConfig{})
	c.Start()
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, &Namespace{Meta: Meta{Kind: KindNamespace, Name: "shop"}})
	})
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	want := ObjectKey{Kind: KindReplicationGroup, Name: "shop"}
	if rec.seen[want] != 1 {
		t.Fatalf("seen = %v", rec.seen)
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	g := &ReplicationGroup{
		Meta: Meta{Kind: KindReplicationGroup, Name: "g", Labels: map[string]string{"a": "1"}},
		Spec: ReplicationGroupSpec{PVCNames: []string{"sales", "stock"}},
	}
	c := g.DeepCopy().(*ReplicationGroup)
	c.Labels["a"] = "2"
	c.Spec.PVCNames[0] = "mutated"
	if g.Labels["a"] != "1" || g.Spec.PVCNames[0] != "sales" {
		t.Fatal("DeepCopy shares storage")
	}
}

// TestStoppedWatchesCompactOnNotify pins the watch-leak fix: a stopped
// watch must be swept out of the server's registry by the next notify, not
// skipped forever — long churny runs register and stop watches per tenant.
func TestStoppedWatchesCompactOnNotify(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	const n = 50
	watches := make([]*Watch, n)
	for i := range watches {
		watches[i] = api.Watch(KindPVC)
	}
	keep := api.Watch(KindPVC)
	for _, w := range watches {
		w.Stop()
	}
	if got := api.WatchCount(); got != 1 {
		t.Fatalf("WatchCount = %d, want 1 live", got)
	}
	if got := len(api.watches); got != n+1 {
		t.Fatalf("registry = %d before notify, want %d", got, n+1)
	}
	env.Process("driver", func(p *sim.Proc) {
		if err := api.Create(p, pvc("shop", "sales", "fast", 1)); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if got := len(api.watches); got != 1 {
		t.Fatalf("registry = %d after notify, want 1 (stopped watches compacted)", got)
	}
	if keep.Pending() != 1 {
		t.Fatalf("surviving watch pending = %d, want 1", keep.Pending())
	}
	for _, w := range watches {
		if w.Pending() != 0 {
			t.Fatal("stopped watch received an event")
		}
	}
}

// TestControllerStopReleasesWatch pins the other half of the leak: a
// stopped controller's watch must detach so the server can compact it.
func TestControllerStopReleasesWatch(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	ctrl := NewController(env, api, "test", KindPVC, nil,
		ReconcilerFunc(func(p *sim.Proc, key ObjectKey) error { return nil }), ControllerConfig{})
	ctrl.Start()
	env.Run(0)
	if got := api.WatchCount(); got != 1 {
		t.Fatalf("WatchCount after Start = %d, want 1", got)
	}
	ctrl.Stop()
	env.Run(0)
	if got := api.WatchCount(); got != 0 {
		t.Fatalf("WatchCount after Stop = %d, want 0 (controller watch leaked)", got)
	}
}
