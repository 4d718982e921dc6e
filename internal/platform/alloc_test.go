package platform

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// Allocation pins for the API server's read-only sharing contract: reads
// hand out the stored object (no copy), a charged miss costs its typed error
// and a cache miss nothing, a namespace List costs its result slice, and a
// write costs the one detaching copy alone: watch events are values, so
// fan-out to any number of watchers allocates nothing.

const opsPerRun = 50

// fleetStore returns an API server holding `tenants` namespaces of four
// claims each — the shape the operator's per-namespace discovery lists.
func fleetStore(tb testing.TB, tenants int) (*sim.Env, *APIServer) {
	tb.Helper()
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	env.Process("populate", func(p *sim.Proc) {
		for i := 0; i < tenants; i++ {
			ns := fmt.Sprintf("tenant-%04d", i)
			for _, claim := range []string{"sales", "stock", "audit", "logs"} {
				if err := api.Create(p, pvc(ns, claim, "fast", 1)); err != nil {
					tb.Error(err)
				}
			}
		}
	})
	env.Run(0)
	return env, api
}

// loop starts a process repeating op forever (each op is one API call, so
// one roundTrip of virtual time) and returns a function advancing the
// simulation by n ops.
func loop(env *sim.Env, op func(p *sim.Proc)) (advance func(n int)) {
	env.Process("loop", func(p *sim.Proc) {
		for {
			op(p)
		}
	})
	return func(n int) { env.Run(env.Now() + time.Duration(n)*roundTrip) }
}

// allocsPerOp measures op's steady-state allocations per call.
func allocsPerOp(env *sim.Env, op func(p *sim.Proc)) float64 {
	advance := loop(env, op)
	advance(opsPerRun) // warm up: queues and slabs at their working size
	return testing.AllocsPerRun(10, func() { advance(opsPerRun) }) / opsPerRun
}

var (
	hitKey  = ObjectKey{Kind: KindPVC, Namespace: "tenant-0512", Name: "stock"}
	missKey = ObjectKey{Kind: KindPVC, Namespace: "tenant-0512", Name: "absent"}
)

func TestGetHitDoesNotAllocate(t *testing.T) {
	env, api := fleetStore(t, 1024)
	if n := allocsPerOp(env, func(p *sim.Proc) { api.Get(p, hitKey) }); n != 0 {
		t.Fatalf("Get hit allocates %v per call, want 0", n)
	}
}

func TestGetMissAllocatesOnlyItsError(t *testing.T) {
	env, api := fleetStore(t, 1024)
	if n := allocsPerOp(env, func(p *sim.Proc) { api.Get(p, missKey) }); n > 1 {
		t.Fatalf("Get miss allocates %v per call, want <= 1", n)
	}
}

// A reconciler probes the cache for objects that are usually absent; the
// miss is ok == false, with no error to build.
func TestCachedMissDoesNotAllocate(t *testing.T) {
	_, api := fleetStore(t, 1024)
	if n := testing.AllocsPerRun(100, func() { api.Cached(missKey) }); n != 0 {
		t.Fatalf("Cached miss allocates %v per call, want 0", n)
	}
}

func TestNamespaceListAllocatesOnlyItsResult(t *testing.T) {
	env, api := fleetStore(t, 1024)
	var got int
	n := allocsPerOp(env, func(p *sim.Proc) { got = len(api.List(p, KindPVC, hitKey.Namespace)) })
	if got != 4 {
		t.Fatalf("List returned %d claims, want 4", got)
	}
	if n > 1 {
		t.Fatalf("List of one namespace among 1,024 allocates %v per call, want <= 1", n)
	}
}

// watchedUpdate returns an op updating one claim that a kind-wide watcher
// and a keyed watcher both follow (consumers keep their queues drained).
func watchedUpdate(env *sim.Env, api *APIServer) func(p *sim.Proc) {
	for _, w := range []*Watch{api.Watch(KindPVC), api.WatchKey(hitKey)} {
		env.Process("consumer", func(p *sim.Proc) {
			for {
				w.Next(p)
			}
		})
	}
	var mine Object
	return func(p *sim.Proc) {
		if mine == nil {
			cur, _ := api.Get(p, hitKey)
			mine = cur.DeepCopy()
		}
		if err := api.Update(p, mine); err != nil {
			panic(err)
		}
	}
}

func TestUpdateNotifyAllocatesOnlyItsCopy(t *testing.T) {
	env, api := fleetStore(t, 1024)
	if n := allocsPerOp(env, watchedUpdate(env, api)); n > 1 {
		t.Fatalf("Update with a kind watcher and a keyed watcher allocates %v per call, want <= 1 (the stored copy)", n)
	}
}

func TestListOrderAndNamespaceRange(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		// Created out of order, across namespaces that are prefixes of one
		// another: the index must still hand back (namespace, name) order
		// and exactly the named namespace's run.
		for _, k := range [][2]string{{"shop-2", "b"}, {"shop", "z"}, {"shop", "a"}, {"sho", "q"}, {"shop-2", "a"}, {"shop", "m"}} {
			api.Create(p, pvc(k[0], k[1], "fast", 1))
		}
		names := func(objs []Object) (out []string) {
			for _, o := range objs {
				out = append(out, o.GetMeta().Namespace+"/"+o.GetMeta().Name)
			}
			return out
		}
		if got := fmt.Sprint(names(api.List(p, KindPVC, "shop"))); got != "[shop/a shop/m shop/z]" {
			t.Errorf("List(shop) = %s", got)
		}
		if got := fmt.Sprint(names(api.List(p, KindPVC, ""))); got != "[sho/q shop/a shop/m shop/z shop-2/a shop-2/b]" {
			t.Errorf("List(all) = %s", got)
		}
		if got := api.List(p, KindPVC, "nobody"); len(got) != 0 {
			t.Errorf("List(nobody) = %v", names(got))
		}
		api.Delete(p, ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "m"})
		if got := fmt.Sprint(names(api.List(p, KindPVC, "shop"))); got != "[shop/a shop/z]" {
			t.Errorf("List(shop) after delete = %s", got)
		}
	})
}

func TestStatusErrorsMatchSentinelsAndNameTheKey(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		_, err := api.Get(p, hitKey)
		if !errorsIsOnly(err, ErrNotFound) {
			t.Errorf("Get miss: %v", err)
		}
		if want := "platform: object not found: PersistentVolumeClaim/tenant-0512/stock"; err.Error() != want {
			t.Errorf("message %q, want %q", err, want)
		}
		mine := pvc("shop", "sales", "fast", 1)
		api.Create(p, mine)
		if err := api.Create(p, pvc("shop", "sales", "fast", 1)); !errorsIsOnly(err, ErrExists) {
			t.Errorf("duplicate Create: %v", err)
		}
		stale := mine.DeepCopy()
		api.Update(p, mine)
		if err := api.Update(p, stale); !errorsIsOnly(err, ErrConflict) {
			t.Errorf("stale Update: %v", err)
		}
	})
}

// benchOp reports op's steady-state cost per call.
func benchOp(b *testing.B, env *sim.Env, op func(p *sim.Proc)) {
	advance := loop(env, op)
	advance(opsPerRun)
	b.ReportAllocs()
	b.ResetTimer()
	advance(b.N)
}

func BenchmarkAPIServerGet(b *testing.B) {
	env, api := fleetStore(b, 1024)
	benchOp(b, env, func(p *sim.Proc) { api.Get(p, hitKey) })
}

// BenchmarkAPIServerList1k lists one tenant's four claims out of a store of
// 1,024 tenants (4,096 claims) — the operator's PVC discovery.
func BenchmarkAPIServerList1k(b *testing.B) {
	env, api := fleetStore(b, 1024)
	benchOp(b, env, func(p *sim.Proc) { api.List(p, KindPVC, hitKey.Namespace) })
}

// BenchmarkAPIServerUpdateNotify: one op is one Update delivered to a
// kind-wide watcher and a keyed watcher.
func BenchmarkAPIServerUpdateNotify(b *testing.B) {
	env, api := fleetStore(b, 1024)
	benchOp(b, env, watchedUpdate(env, api))
}

// fleetObjects returns the main site's object set at the end of a fleet of
// `tenants` backed-up tenants of two claims each: the storage class, then per
// tenant its Tenant, labelled Namespace, two claims, two volumes and
// replication group, in the order provisioning creates them (7,169 objects
// at 1,024 tenants).
func fleetObjects(tenants int) []Object {
	objs := []Object{&StorageClass{Meta: Meta{Kind: KindStorageClass, Name: "fast"}, Provisioner: "csi", ArrayName: "main"}}
	claims := []string{"sales", "stock"}
	for i := 0; i < tenants; i++ {
		ns := fmt.Sprintf("tenant-%03d", i)
		objs = append(objs,
			&Tenant{Meta: Meta{Kind: KindTenant, Name: ns}, Spec: TenantSpec{Namespace: ns, PVCNames: claims, Backup: true}},
			&Namespace{Meta: Meta{Kind: KindNamespace, Name: ns, Labels: map[string]string{"backup": "ConsistentCopyToCloud"}}})
		for _, c := range claims {
			objs = append(objs, pvc(ns, c, "fast", 256),
				&PersistentVolume{Meta: Meta{Kind: KindPV, Name: "pv-" + ns + "-" + c}, Spec: PVSpec{ArrayName: "main", SizeBlocks: 256}})
		}
		objs = append(objs, &ReplicationGroup{Meta: Meta{Kind: KindReplicationGroup, Name: "backup-" + ns},
			Spec: ReplicationGroupSpec{SourceNamespace: ns, PVCNames: claims}})
	}
	return objs
}

// BenchmarkAPIServerFill: one op fills a fresh store with a 1,024-tenant
// fleet's object set (fleetObjects), one Create each — the store's copies
// and its index's growth.
func BenchmarkAPIServerFill(b *testing.B) {
	objs := fleetObjects(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(1)
		api := NewAPIServer(env, APIConfig{})
		env.Process("fill", func(p *sim.Proc) {
			for _, o := range objs {
				if err := api.Create(p, o); err != nil {
					b.Error(err)
				}
			}
		})
		env.Run(0)
	}
}

// BenchmarkControllerBacklog: one op is one controller started, handed 1,024
// keys at once and run dry on a reconciler of three API calls — the fleet's
// provisioning burst without the fleet. allocs/op carries what the workers
// cost to start; sim-ms/drain is the science (192 on eight workers).
func BenchmarkControllerBacklog(b *testing.B) {
	keys := make([]ObjectKey, 1024)
	for k := range keys {
		keys[k] = claimKey(k)
	}
	var drained time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(1)
		api := NewAPIServer(env, APIConfig{})
		c := NewController(env, api, "bench", KindPVC,
			func(p *sim.Proc, key ObjectKey) error {
				for call := 0; call < 3; call++ {
					api.List(p, KindPVC, key.Namespace)
				}
				return nil
			}, nil)
		c.Start()
		for _, key := range keys {
			c.Enqueue(key)
		}
		drained = env.Run(0)
		c.Stop()
		env.Run(0)
	}
	b.ReportMetric(float64(drained)/float64(time.Millisecond), "sim-ms/drain")
}

// errorsIsOnly reports whether err matches want and neither other sentinel.
func errorsIsOnly(err, want error) bool {
	for _, s := range []error{ErrNotFound, ErrExists, ErrConflict} {
		if errors.Is(err, s) != (s == want) {
			return false
		}
	}
	return true
}
