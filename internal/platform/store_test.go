package platform

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

var allKinds = []Kind{KindNamespace, KindStorageClass, KindPVC, KindPV, KindReplicationGroup, KindTenant}

// newObject returns an object of kind under (ns, name) with random labels
// and spec.
func newObject(rng *rand.Rand, kind Kind, ns, name string) Object {
	m := Meta{Kind: kind, Namespace: ns, Name: name}
	if rng.Intn(2) == 0 {
		m.Labels = map[string]string{"tier": fmt.Sprint(rng.Intn(3))}
	}
	names := func() []string { return []string{"sales", "stock", "audit"}[:rng.Intn(4)] }
	switch kind {
	case KindNamespace:
		return &Namespace{Meta: m}
	case KindStorageClass:
		return &StorageClass{Meta: m, Provisioner: "csi", ArrayName: fmt.Sprint("array-", rng.Intn(2))}
	case KindPVC:
		return &PersistentVolumeClaim{Meta: m, Spec: PVCSpec{StorageClassName: "fast", SizeBlocks: rng.Int63n(100)}}
	case KindPV:
		return &PersistentVolume{Meta: m, Spec: PVSpec{SizeBlocks: rng.Int63n(100)}}
	case KindReplicationGroup:
		return &ReplicationGroup{Meta: m, Spec: ReplicationGroupSpec{SourceNamespace: name, PVCNames: names()}}
	default:
		return &Tenant{Meta: m, Spec: TenantSpec{Namespace: name, PVCNames: names()}}
	}
}

// mutate changes obj the way a writer does: its status alone, its labels,
// or its name list.
func mutate(rng *rand.Rand, obj Object) {
	switch rng.Intn(3) {
	case 0:
		obj.GetMeta().Labels = map[string]string{"tier": fmt.Sprint(rng.Intn(3)), "shards": "2"}
		return
	case 1:
		if names := pvcNames(obj); names != nil {
			*names = append(slices.Clip(*names), "logs")
			return
		}
	}
	setStatus(obj, fmt.Sprint("status-", rng.Intn(1000)))
}

// setStatus writes msg into a field outside obj's metadata and name list:
// its status where the kind has one.
func setStatus(obj Object, msg string) {
	switch o := obj.(type) {
	case *StorageClass:
		o.ArrayName = msg
	case *PersistentVolumeClaim:
		o.Status.VolumeName = msg
	case *PersistentVolume:
		o.Status.ClaimName = msg
	case *ReplicationGroup:
		o.Status.Message = msg
	case *Tenant:
		o.Status.Message = msg
	}
}

// TestStoreMatchesMapModel holds the store's one index to a map of the
// objects written plus a sort, over random Create/Update/Delete sequences
// on all six kinds with claims and groups spread across namespaces that
// are prefixes of one another: duplicate creates, stale resource versions
// and deletes of absent keys included. After every few operations it
// compares every key's Cached hit or miss, CachedList of every kind for
// every namespace and for "", Names, and the order Each walks the store in;
// every failed write's sentinel and key.
func TestStoreMatchesMapModel(t *testing.T) {
	namespaces := []string{"a", "ab", "a-b", "b", "ba", "c", "shop", "shop-1", "shop1", "z"}
	names := []string{"x", "sales", "stock", "stock-2", "y"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
			model := map[ObjectKey]Object{} // a deep copy of every object as written
			var universe []ObjectKey
			for _, k := range allKinds {
				for _, name := range names {
					universe = append(universe, ObjectKey{Kind: k, Name: name})
					if k == KindPVC || k == KindReplicationGroup {
						for _, ns := range namespaces {
							universe = append(universe, ObjectKey{Kind: k, Namespace: ns, Name: name})
						}
					}
				}
			}
			wantErr := func(op string, err, sentinel error, key ObjectKey) {
				t.Helper()
				var se *StatusError
				if sentinel == nil {
					if err != nil {
						t.Fatalf("seed %d: %s %s: %v", seed, op, key, err)
					}
					return
				}
				if !errors.As(err, &se) || se.Err != sentinel || se.Key != key {
					t.Fatalf("seed %d: %s %s: err %v, want %v naming the key", seed, op, key, err, sentinel)
				}
			}
			for op := 0; op < 1500; op++ {
				key := universe[rng.Intn(len(universe))]
				cur, exists := model[key]
				switch r := rng.Intn(10); {
				case r < 5:
					obj := newObject(rng, key.Kind, key.Namespace, key.Name)
					err := api.Create(p, obj)
					if exists {
						wantErr("Create", err, ErrExists, key)
						break
					}
					wantErr("Create", err, nil, key)
					model[key] = obj.DeepCopy()
				case r < 8:
					var obj Object
					if exists {
						obj = cur.DeepCopy()
					} else {
						obj = newObject(rng, key.Kind, key.Namespace, key.Name)
					}
					stale := exists && rng.Intn(4) == 0
					if stale {
						obj.GetMeta().ResourceVersion--
					}
					mutate(rng, obj)
					err := api.Update(p, obj)
					switch {
					case !exists:
						wantErr("Update", err, ErrNotFound, key)
					case stale:
						wantErr("Update", err, ErrConflict, key)
					default:
						wantErr("Update", err, nil, key)
						model[key] = obj.DeepCopy()
					}
				default:
					api.Delete(p, key)
					delete(model, key)
				}
				if op%25 == 0 || op == 1499 {
					compareWithModel(t, fmt.Sprintf("seed %d op %d", seed, op), api, model, universe, namespaces)
				}
			}
		})
	}
}

func compareWithModel(t *testing.T, at string, api *APIServer, model map[ObjectKey]Object, universe []ObjectKey, namespaces []string) {
	t.Helper()
	for _, key := range universe {
		got, ok := api.Cached(key)
		want, in := model[key]
		if ok != in || in && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Cached(%s) = %+v, %v; model has %+v, %v", at, key, got, ok, want, in)
		}
	}
	sorted := slices.SortedFunc(maps.Keys(model), func(a, b ObjectKey) int {
		if c := strings.Compare(string(a.Kind), string(b.Kind)); c != 0 {
			return c
		}
		if c := strings.Compare(a.Namespace, b.Namespace); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	keysOf := func(objs []Object) []ObjectKey {
		var out []ObjectKey
		for _, o := range objs {
			out = append(out, o.GetMeta().Key())
		}
		return out
	}
	var walked []Object
	api.Each(func(o Object) { walked = append(walked, o) })
	if got := keysOf(walked); !slices.Equal(got, sorted) {
		t.Fatalf("%s: Each walks %v, want %v", at, got, sorted)
	}
	for _, kind := range allKinds {
		var names []string
		for _, ns := range append([]string{""}, namespaces...) {
			var want []ObjectKey
			for _, k := range sorted {
				if k.Kind == kind && (ns == "" || k.Namespace == ns) {
					want = append(want, k)
					if ns == "" {
						names = append(names, k.Name)
					}
				}
			}
			if got := keysOf(api.CachedList(kind, ns)); !slices.Equal(got, want) {
				t.Fatalf("%s: CachedList(%s, %q) = %v, want %v", at, kind, ns, got, want)
			}
		}
		slices.Sort(names)
		if got := api.Names(kind); !slices.Equal(got, names) {
			t.Fatalf("%s: Names(%s) = %v, want %v", at, kind, got, names)
		}
	}
}

// pvcNames points at the name list of a ReplicationGroup or Tenant, nil
// for other kinds.
func pvcNames(o Object) *[]string {
	switch o := o.(type) {
	case *ReplicationGroup:
		return &o.Spec.PVCNames
	case *Tenant:
		return &o.Spec.PVCNames
	}
	return nil
}

// labelsOf and namesOf return the identity of an object's Labels map and
// PVCNames array, so a test can tell a shared one from an equal copy.
func labelsOf(o Object) uintptr { return reflect.ValueOf(o.GetMeta().Labels).Pointer() }

func namesOf(o Object) *string { return &(*pvcNames(o))[0] }

// A stored object is immutable, so Update's copy shares the replaced
// version's Labels and PVCNames when the write left them equal, and makes its
// own when it changed them. Create copies everything, and no write keeps
// the caller's own map or slice: changing them after the write never
// reaches what Cached returns.
func TestUpdateSharesOnlyWhatItDidNotChange(t *testing.T) {
	for _, kind := range []Kind{KindReplicationGroup, KindTenant} {
		run(t, func(p *sim.Proc, env *sim.Env, api *APIServer) {
			key := ObjectKey{Kind: kind, Name: "shop"}
			mine := newObject(rand.New(rand.NewSource(1)), kind, "", "shop")
			mine.GetMeta().Labels = map[string]string{"tier": "gold"}
			*pvcNames(mine) = []string{"sales", "stock"}
			if err := api.Create(p, mine); err != nil {
				t.Fatal(err)
			}
			created, _ := api.Cached(key)
			if labelsOf(created) == labelsOf(mine) || namesOf(created) == namesOf(mine) {
				t.Fatalf("%s: Create kept the caller's labels or names", kind)
			}
			// A status-only write of a deep copy: equal labels and names,
			// but the caller's own.
			status := created.DeepCopy()
			setStatus(status, "ready")
			if err := api.Update(p, status); err != nil {
				t.Fatal(err)
			}
			stored, _ := api.Cached(key)
			if labelsOf(stored) != labelsOf(created) || namesOf(stored) != namesOf(created) {
				t.Errorf("%s: a status-only write copied the unchanged labels or names", kind)
			}
			status.GetMeta().Labels["tier"] = "bulk"
			*namesOf(status) = "renamed"
			if stored.GetMeta().Labels["tier"] != "gold" || *namesOf(stored) != "sales" {
				t.Errorf("%s: the caller's later changes reached the stored version: %+v", kind, stored)
			}
			// A write that changes the labels copies them, and shares the names.
			relabel := stored.DeepCopy()
			relabel.GetMeta().Labels = map[string]string{"tier": "silver"}
			if err := api.Update(p, relabel); err != nil {
				t.Fatal(err)
			}
			next, _ := api.Cached(key)
			if l := labelsOf(next); l == labelsOf(stored) || l == labelsOf(relabel) || namesOf(next) != namesOf(stored) {
				t.Errorf("%s: a label change stored the wrong labels or copied the names", kind)
			}
			// A write that changes the names copies them, and shares the labels.
			rename := next.DeepCopy()
			*pvcNames(rename) = []string{"sales"}
			if err := api.Update(p, rename); err != nil {
				t.Fatal(err)
			}
			last, _ := api.Cached(key)
			if n := namesOf(last); n == namesOf(next) || n == namesOf(rename) || labelsOf(last) != labelsOf(next) {
				t.Errorf("%s: a name change stored the wrong names or copied the labels", kind)
			}
			*namesOf(rename) = "renamed"
			if *namesOf(last) != "sales" || last.GetMeta().Labels["tier"] != "silver" {
				t.Errorf("%s: the caller's later changes reached the stored version: %+v", kind, last)
			}
		})
	}
}
