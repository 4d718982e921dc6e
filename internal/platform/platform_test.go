package platform

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
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

// A status-only write hands Update a struct copy of the stored object, whose
// PVCNames is the stored version's own slice. Update stores a deep copy, so
// what the caller later does with its slice reaches neither the version it
// wrote nor the one before.
func TestStatusWriteOfAStructCopyDetachesItsSlices(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		key := ObjectKey{Kind: KindReplicationGroup, Name: "backup-shop"}
		api.Create(p, &ReplicationGroup{
			Meta: Meta{Kind: KindReplicationGroup, Name: key.Name},
			Spec: ReplicationGroupSpec{SourceNamespace: "shop", PVCNames: []string{"sales", "stock"}},
		})
		prevObj, _ := api.Cached(key)
		prev := prevObj.(*ReplicationGroup)
		mine := *prev // shares PVCNames with prev
		mine.Status.Phase = GroupReady
		if err := api.Update(p, &mine); err != nil {
			t.Fatal(err)
		}
		storedObj, _ := api.Cached(key)
		stored := storedObj.(*ReplicationGroup)
		// The caller grows its slice into an array of its own, then writes it.
		mine.Spec.PVCNames = append(slices.Clip(mine.Spec.PVCNames), "audit")
		mine.Spec.PVCNames[0] = "renamed"
		for _, v := range []struct {
			name string
			rg   *ReplicationGroup
		}{{"stored", stored}, {"previous", prev}} {
			if got := v.rg.Spec.PVCNames; !slices.Equal(got, []string{"sales", "stock"}) {
				t.Errorf("%s version's PVCNames = %v after the caller changed its copy", v.name, got)
			}
		}
		if stored.Status.Phase != GroupReady || prev.Status.Phase != "" {
			t.Errorf("phases: stored %q, previous %q; want Ready and empty", stored.Status.Phase, prev.Status.Phase)
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
		a.(*PersistentVolumeClaim).Status.VolumeName = "pv-a"
		if err := api.Update(p, a); err != nil {
			t.Fatal(err)
		}
		b.(*PersistentVolumeClaim).Status.VolumeName = "pv-b"
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
		obj.(*PersistentVolumeClaim).Status.VolumeName = "pv-sales"
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
	api := NewAPIServer(env, APIConfig{})
	env.Process("driver", func(p *sim.Proc) {
		api.Create(p, pvc("shop", "sales", "fast", 1))
		api.List(p, KindPVC, "")
	})
	end := env.Run(0)
	if end != time.Millisecond {
		t.Fatalf("2 calls took %v, want 2 x 500µs round trips", end)
	}
	if api.Calls() != 2 {
		t.Fatalf("calls = %d", api.Calls())
	}
}

// Cached and CachedList are the informer cache a reconciler reads: the very
// objects Get and List return, in the same order, with no round trip — no
// call counted, no simulated time spent.
func TestCachedReadsAreFreeAndShareGet(t *testing.T) {
	run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
		for _, name := range []string{"stock", "sales"} {
			if err := api.Create(p, pvc("shop", name, "fast", 1)); err != nil {
				t.Fatal(err)
			}
		}
		key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
		now, calls := p.Now(), api.Calls()
		cached, ok := api.Cached(key)
		if !ok {
			t.Fatal("cached hit missed")
		}
		list := api.CachedList(KindPVC, "shop")
		if obj, ok := api.Cached(ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "none"}); ok || obj != nil {
			t.Fatalf("cached miss = %v, %v; want nil, false", obj, ok)
		}
		if p.Now() != now || api.Calls() != calls {
			t.Fatalf("cached reads cost %v and %d calls, want none", p.Now()-now, api.Calls()-calls)
		}
		got, err := api.Get(p, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != cached {
			t.Fatal("Cached returned a different object than Get")
		}
		if listed := api.List(p, KindPVC, "shop"); !slices.Equal(listed, list) || list[0] != cached {
			t.Fatalf("CachedList = %v, List = %v", list, listed)
		}
		if api.Calls() != calls+2 {
			t.Fatalf("Get + List counted %d calls, want 2", api.Calls()-calls)
		}
	})
}

// countingReconciler tracks reconciled keys and can fail N times per key.
type countingReconciler struct {
	seen      map[ObjectKey]int
	failTimes int
	errs      int // errors returned
}

func (r *countingReconciler) Reconcile(p *sim.Proc, key ObjectKey) error {
	if r.seen == nil {
		r.seen = make(map[ObjectKey]int)
	}
	r.seen[key]++
	if r.seen[key] <= r.failTimes {
		r.errs++
		return errors.New("transient")
	}
	return nil
}

func TestControllerReconcilesOnEvents(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
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
	for key, n := range rec.seen {
		if n != 1 {
			t.Fatalf("%v reconciled %d times, want once", key, n)
		}
	}
	if c.Reconciles() != 2 {
		t.Fatalf("reconciles = %d, want 2", c.Reconciles())
	}
}

func TestControllerRetriesWithBackoff(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{failTimes: 3}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
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
	if rec.errs != 3 {
		t.Fatalf("errors = %d", rec.errs)
	}
}

func TestControllerDeduplicatesQueue(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
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

// Stop leaves queued keys queued: every worker busy when the stop comes
// returns once its reconcile does, and a parked worker woken by a key just
// before the stop returns without reconciling it, so a fresh controller over
// the same store is the only one to reconcile them.
func TestControllerStopLeavesQueuedKeys(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &ledger{api: api, sleep: time.Millisecond}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
	procs := env.Procs()
	c.Start()
	const keys = 20
	for i := range keys {
		c.Enqueue(claimKey(i))
	}
	env.After(500*time.Microsecond, c.Stop)
	env.Run(0)
	if busy := reconcileWorkers; c.Reconciles() != int64(busy) || c.QueueLen() != keys-busy || len(rec.runs) != busy {
		t.Fatalf("after the stop: %d reconciles (%d finished), %d keys queued; want %d, %d and %d",
			c.Reconciles(), len(rec.runs), c.QueueLen(), busy, busy, keys-busy)
	}
	if env.Procs() != procs {
		t.Fatalf("%d processes left running, want %d", env.Procs(), procs)
	}

	c = NewController(env, api, "woken", KindPVC, rec.Reconcile, nil)
	c.Start()
	env.Run(env.Now() + time.Millisecond) // the one worker parks
	c.Enqueue(claimKey(0))
	c.Stop()
	env.Run(0)
	if c.Reconciles() != 0 || c.QueueLen() != 1 || env.Procs() != procs {
		t.Fatalf("a worker woken before the stop: %d reconciles, %d keys queued, %d processes; want 0, 1 and %d",
			c.Reconciles(), c.QueueLen(), env.Procs(), procs)
	}
}

// The event arrives while the key's reconcile is failing: the dirty mark
// queues it again at once and the backoff queues it again later, as
// client-go's Done + AddRateLimited do.
func TestControllerFailsWhileDirty(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	key := ObjectKey{Kind: KindPVC, Namespace: "shop", Name: "sales"}
	var starts []time.Duration
	c := NewController(env, api, "test", KindPVC,
		func(p *sim.Proc, _ ObjectKey) error {
			starts = append(starts, p.Now())
			p.Sleep(1500 * time.Microsecond)
			if len(starts) == 1 {
				return errors.New("transient")
			}
			return nil
		}, nil)
	c.Start()
	c.Enqueue(key)
	env.After(time.Millisecond, func() { c.Enqueue(key) })
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	want := []time.Duration{0, 1500 * time.Microsecond, 1500*time.Microsecond + retryDelay}
	if !slices.Equal(starts, want) {
		t.Fatalf("reconciles started at %v, want %v (at once by the dirty mark, then after the backoff)", starts, want)
	}
}

// ledger is a reconciler of `calls` API calls (sleep, when calls is 0) that
// keeps what the work-queue tests assert on: every run's key and interval,
// how many ran at once, and whether one key was ever open twice.
type ledger struct {
	api   *APIServer
	calls int
	sleep time.Duration

	open        map[ObjectKey]int
	inFlight    int
	maxInFlight int
	twice       []ObjectKey
	runs        []ledgerRun
}

type ledgerRun struct {
	key        ObjectKey
	start, end time.Duration
}

func (l *ledger) Reconcile(p *sim.Proc, key ObjectKey) error {
	if l.open == nil {
		l.open = make(map[ObjectKey]int)
	}
	if l.open[key]++; l.open[key] > 1 {
		l.twice = append(l.twice, key)
	}
	l.inFlight++
	l.maxInFlight = max(l.maxInFlight, l.inFlight)
	start := p.Now()
	for i := 0; i < l.calls; i++ {
		l.api.Get(p, key)
	}
	if l.sleep > 0 {
		p.Sleep(l.sleep)
	}
	l.open[key]--
	l.inFlight--
	l.runs = append(l.runs, ledgerRun{key: key, start: start, end: p.Now()})
	return nil
}

// runsOf returns key's runs in the order they finished.
func (l *ledger) runsOf(key ObjectKey) (out []ledgerRun) {
	for _, r := range l.runs {
		if r.key == key {
			out = append(out, r)
		}
	}
	return out
}

func claimKey(i int) ObjectKey {
	return ObjectKey{Kind: KindPVC, Namespace: "shop", Name: fmt.Sprintf("claim-%04d", i)}
}

// Exclusion: under a storm of updates to four claims, workers run different
// claims at once but never one claim twice, and the level-triggered
// guarantee survives — each claim's last reconcile starts after its last
// update landed.
func TestControllerNeverRunsOneKeyTwice(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &ledger{api: api, calls: 3}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
	c.Start()
	const keys, updates = 4, 50
	lastWrite := make([]time.Duration, keys)
	for k := 0; k < keys; k++ {
		env.Process("driver", func(p *sim.Proc) {
			mine := pvc("shop", claimKey(k).Name, "fast", 1)
			if err := api.Create(p, mine); err != nil {
				t.Error(err)
			}
			for i := 0; i < updates; i++ {
				// Out of step with each other and with the 1.5 ms reconcile.
				p.Sleep(time.Duration(k*100+i*37%400) * time.Microsecond)
				mine.Spec.SizeBlocks++
				if err := api.Update(p, mine); err != nil {
					t.Error(err)
				}
			}
			lastWrite[k] = p.Now()
		})
	}
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	if len(rec.twice) > 0 {
		t.Fatalf("a key was reconciled by two workers at once %d times, first %s", len(rec.twice), rec.twice[0])
	}
	if rec.maxInFlight < 2 || rec.maxInFlight > keys {
		t.Fatalf("max reconciles in flight = %d, want 2..%d (different keys do overlap)", rec.maxInFlight, keys)
	}
	for k := 0; k < keys; k++ {
		runs := rec.runsOf(claimKey(k))
		if len(runs) < 2 || len(runs) > updates+1 {
			t.Fatalf("%s reconciled %d times for %d events", claimKey(k), len(runs), updates+1)
		}
		if last := runs[len(runs)-1]; last.start < lastWrite[k] {
			t.Fatalf("%s: last reconcile started at %v, before its last update at %v", claimKey(k), last.start, lastWrite[k])
		}
		for i := 1; i < len(runs); i++ {
			if runs[i].start < runs[i-1].end {
				t.Fatalf("%s: run %d started at %v inside the previous one (ended %v)", claimKey(k), i, runs[i].start, runs[i-1].end)
			}
		}
	}
}

// Dirty once: however many events arrive for a key while it is being
// reconciled, it is reconciled exactly once more, from the instant the first
// reconcile returns.
func TestControllerDirtyKeyRequeuesOnce(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &ledger{api: api, calls: 3}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
	c.Start()
	key := claimKey(0)
	c.Enqueue(key)
	for i := 1; i <= 5; i++ {
		env.After(time.Duration(i)*200*time.Microsecond, func() { c.Enqueue(key) })
	}
	procs := env.Procs()
	env.Run(time.Second)
	if c.QueueLen() != 0 || env.Procs() != procs {
		t.Fatalf("queue %d, procs %d -> %d: one key needs one worker", c.QueueLen(), procs, env.Procs())
	}
	c.Stop()
	env.Run(0)
	want := []ledgerRun{
		{key, 0, 1500 * time.Microsecond},
		{key, 1500 * time.Microsecond, 3 * time.Millisecond},
	}
	if !slices.Equal(rec.runs, want) {
		t.Fatalf("runs = %v, want %v", rec.runs, want)
	}
}

// One queue, many kinds: a key being reconciled because of one kind's event
// is only marked dirty by another kind's event for it, so exactly one more
// reconcile follows — after the first, on the same worker, never beside it.
func TestControllerWatchesSecondKindMarksKeyDirty(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	reg := telemetry.New(env, telemetry.Config{})
	rec := &ledger{api: api, calls: 3}
	c := NewController(env, api, "test", KindNamespace, rec.Reconcile, reg).
		Watches(KindPVC, func(ev Event) (ObjectKey, bool) {
			return ObjectKey{Kind: KindNamespace, Name: ev.Object.GetMeta().Namespace}, true
		})
	c.Start()
	env.Process("driver", func(p *sim.Proc) {
		if err := api.Create(p, &Namespace{Meta: Meta{Kind: KindNamespace, Name: "shop"}}); err != nil {
			t.Error(err)
		}
		// Lands at 1 ms, halfway through the namespace's 1.5 ms reconcile.
		if err := api.Create(p, pvc("shop", "sales", "fast", 1)); err != nil {
			t.Error(err)
		}
	})
	env.Run(time.Second)
	c.Stop()
	env.Run(0)
	key := ObjectKey{Kind: KindNamespace, Name: "shop"}
	want := []ledgerRun{
		{key, 500 * time.Microsecond, 2 * time.Millisecond},
		{key, 2 * time.Millisecond, 3500 * time.Microsecond},
	}
	if !slices.Equal(rec.runs, want) || len(rec.twice) > 0 {
		t.Fatalf("runs = %v (twice at once: %v), want %v", rec.runs, rec.twice, want)
	}
	if err := reg.SpanOverlap(); err != nil {
		t.Fatal(err)
	}
}

// Bound: a backlog of 1,024 keys drains on exactly reconcileWorkers workers —
// ceil(1024/8) rounds of one 3-call reconcile — with the queue wait and the
// worker count on the telemetry plane and each worker's spans on a track of
// its own.
func TestControllerBacklogDrainsOnEightWorkers(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	reg := telemetry.New(env, telemetry.Config{})
	rec := &ledger{api: api, calls: 3}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, reg)
	c.Start()
	procs := env.Procs()
	const keys = 1024
	for i := 0; i < keys; i++ {
		c.Enqueue(claimKey(i))
	}
	end := env.Run(0)
	const round = 1500 * time.Microsecond
	if want := (keys + reconcileWorkers - 1) / reconcileWorkers * round; end != want {
		t.Fatalf("backlog drained at %v, want %v", end, want)
	}
	if len(rec.runs) != keys || rec.maxInFlight != reconcileWorkers || len(rec.twice) > 0 {
		t.Fatalf("runs %d, max in flight %d, keys run twice at once %v", len(rec.runs), rec.maxInFlight, rec.twice)
	}
	if got := env.Procs() - procs; got != reconcileWorkers-1 {
		t.Fatalf("backlog started %d more workers, want %d", got, reconcileWorkers-1)
	}
	for i, r := range rec.runs { // FIFO: key i runs in round i/8
		if r.key != claimKey(i) || r.start != time.Duration(i/reconcileWorkers)*round {
			t.Fatalf("run %d = %+v, want %s at %v", i, r, claimKey(i), time.Duration(i/reconcileWorkers)*round)
		}
	}
	// A second backlog finds the eight parked and starts nobody.
	for i := 0; i < keys; i++ {
		c.Enqueue(claimKey(i))
	}
	env.Run(0)
	if got := env.Procs() - procs; got != reconcileWorkers-1 || len(rec.runs) != 2*keys {
		t.Fatalf("second backlog: %d extra workers, %d runs", got, len(rec.runs))
	}

	ctl := telemetry.L("controller", "test")
	if g := reg.Gauge("controller.workers", ctl); g.Value() != reconcileWorkers {
		t.Fatalf("controller.workers = %d", g.Value())
	}
	wait := reg.Histogram("controller.queue.wait", ctl)
	if wait.Count() != 2*keys || wait.Min() != 0 || wait.Max() != (keys/reconcileWorkers-1)*round {
		t.Fatalf("queue wait: n=%d min=%v max=%v", wait.Count(), wait.Min(), wait.Max())
	}
	if err := reg.SpanOverlap(); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, ev := range reg.Snapshot().TraceEvents {
		if ev.Ph == "M" {
			tracks[ev.Args["name"].(string)] = true
		}
	}
	if len(tracks) != reconcileWorkers || !tracks["test"] || !tracks["test/w7"] {
		t.Fatalf("span tracks = %v, want test, test/w1 .. test/w7", tracks)
	}
	c.Stop()
	env.Run(0)
}

// Laziness: a lone key, and two keys half a millisecond apart under a
// 1.25 ms reconcile (the one-shop sales/stock shape), never have two keys
// waiting, so they run on the one worker Start made, at the instants a
// single-worker queue gives.
func TestControllerStartsNoWorkerWithoutBacklog(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &ledger{sleep: 1250 * time.Microsecond}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
	c.Start()
	procs := env.Procs()
	c.Enqueue(claimKey(0))
	env.After(500*time.Microsecond, func() { c.Enqueue(claimKey(1)) })
	env.After(10*time.Millisecond, func() { c.Enqueue(claimKey(2)) })
	env.Run(time.Second)
	if env.Procs() != procs || rec.maxInFlight != 1 {
		t.Fatalf("procs %d -> %d, max in flight %d: want one worker throughout", procs, env.Procs(), rec.maxInFlight)
	}
	want := []ledgerRun{
		{claimKey(0), 0, 1250 * time.Microsecond},
		{claimKey(1), 1250 * time.Microsecond, 2500 * time.Microsecond},
		{claimKey(2), 10 * time.Millisecond, 11250 * time.Microsecond},
	}
	if !slices.Equal(rec.runs, want) {
		t.Fatalf("runs = %v, want %v", rec.runs, want)
	}
	c.Stop()
	env.Run(0)
}

// Stop: parked workers return at once, busy ones finish what is in flight
// and drain the queue, and nothing is left blocked.
func TestControllerStopReturnsEveryWorker(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &ledger{api: api, calls: 3}
	c := NewController(env, api, "test", KindPVC, rec.Reconcile, nil)
	before := env.Procs()
	c.Start()
	const keys = 12 // a round of eight, then four busy and four parked
	for i := 0; i < keys; i++ {
		c.Enqueue(claimKey(i))
	}
	env.Run(2 * time.Millisecond)
	if rec.inFlight != keys-reconcileWorkers || env.Blocked() != 1+2*reconcileWorkers-keys {
		t.Fatalf("at 2ms: %d in flight, %d blocked", rec.inFlight, env.Blocked())
	}
	c.Stop()
	end := env.Run(0)
	if len(rec.runs) != keys || end != 3*time.Millisecond {
		t.Fatalf("%d of %d keys reconciled by %v", len(rec.runs), keys, end)
	}
	if env.Procs() != before || env.Blocked() != 0 {
		t.Fatalf("after Stop: %d processes left (%d blocked)", env.Procs()-before, env.Blocked())
	}
}

func TestControllerCustomMapFn(t *testing.T) {
	env := sim.NewEnv(1)
	api := NewAPIServer(env, APIConfig{})
	rec := &countingReconciler{}
	// Map namespace events to a ReplicationGroup key — the NSO pattern.
	c := NewController(env, api, "nso", KindReplicationGroup, rec.Reconcile, nil).
		Watches(KindNamespace, func(ev Event) (ObjectKey, bool) {
			return ObjectKey{Kind: KindReplicationGroup, Name: ev.Object.GetMeta().Name}, true
		})
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
	ctrl := NewController(env, api, "test", KindPVC,
		func(p *sim.Proc, key ObjectKey) error { return nil }, nil)
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
