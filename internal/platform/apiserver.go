package platform

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// API errors. Calls that fail on a particular object return a *StatusError
// wrapping one of these; test with errors.Is.
var (
	ErrNotFound = errors.New("platform: object not found")
	ErrExists   = errors.New("platform: object already exists")
	ErrConflict = errors.New("platform: resource version conflict")
)

// StatusError is an API failure on one object: which sentinel, and which
// key. Reconcilers probe for objects that are usually absent (Get, then
// create on ErrNotFound), so a miss must cost next to nothing — the key is
// carried as a value and formatted only if somebody prints the error.
type StatusError struct {
	Err error // ErrNotFound, ErrExists or ErrConflict
	Key ObjectKey
	// Have and Stored are the caller's and the store's resource versions
	// (ErrConflict only).
	Have, Stored int64
}

func (e *StatusError) Error() string {
	if e.Err == ErrConflict {
		return fmt.Sprintf("%v: %s (have %d, store %d)", e.Err, e.Key, e.Have, e.Stored)
	}
	return e.Err.Error() + ": " + e.Key.String()
}

// Unwrap returns the sentinel so errors.Is(err, ErrNotFound) holds.
func (e *StatusError) Unwrap() error { return e.Err }

// EventType classifies watch events.
type EventType string

// Watch event types.
const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// Event is one watch notification. Object is the stored object itself (for
// Deleted, the last stored version), shared with the store, every other
// watcher and every reader: it is read-only — DeepCopy before mutating.
type Event struct {
	Type   EventType
	Object Object
}

// roundTrip is the simulated cost of every API call: a fast intra-cluster
// HTTP round trip.
const roundTrip = 500 * time.Microsecond

// APIConfig is empty: it stays only because benchmark/ builds one, and goes
// with the benchmark unfreeze (ROADMAP item 1).
type APIConfig struct{}

// APIServer is the platform's object store: create/update/get/list/delete
// with optimistic concurrency plus watches.
//
// Ownership follows the client-go lister contract. A stored object is
// immutable: every write installs a new object (the one copy Create/Update
// take to detach the caller's), and that same pointer is what Get, List and
// watch events hand to every reader. Readers must treat what they receive
// as read-only and DeepCopy before a read-modify-write; in exchange reads
// copy nothing.
type APIServer struct {
	env     *sim.Env
	objects map[ObjectKey]Object
	// byKind indexes the store per kind, each slice kept sorted by
	// (namespace, name) on write: a namespace's objects are one contiguous
	// run found by binary search, so List costs O(log n + result) with no
	// per-call key collection or sort — at fleet scale a whole-kind scan per
	// List call is quadratic in tenants.
	byKind  map[Kind][]Object
	rv      int64
	watches []*Watch
	// keyed holds single-object watches bucketed by key, so a notify
	// touches only the waiters of the object that changed instead of
	// scanning every registered watch (quadratic at fleet scale).
	keyed map[ObjectKey][]*Watch
	calls int64
}

// NewAPIServer returns an empty store.
func NewAPIServer(env *sim.Env, _ APIConfig) *APIServer {
	return &APIServer{
		env:     env,
		objects: make(map[ObjectKey]Object),
		byKind:  make(map[Kind][]Object),
		keyed:   make(map[ObjectKey][]*Watch),
	}
}

// indexOf returns where key sorts in its kind's index and whether an object
// with that key is there.
func (s *APIServer) indexOf(key ObjectKey) (int, bool) {
	return slices.BinarySearchFunc(s.byKind[key.Kind], key, func(o Object, k ObjectKey) int {
		m := o.GetMeta()
		if c := strings.Compare(m.Namespace, k.Namespace); c != 0 {
			return c
		}
		return strings.Compare(m.Name, k.Name)
	})
}

// indexPut installs obj under key, replacing the previous version if any.
func (s *APIServer) indexPut(key ObjectKey, obj Object) {
	s.objects[key] = obj
	i, found := s.indexOf(key)
	if found {
		s.byKind[key.Kind][i] = obj
		return
	}
	s.byKind[key.Kind] = slices.Insert(s.byKind[key.Kind], i, obj)
}

func (s *APIServer) indexDelete(key ObjectKey) {
	delete(s.objects, key)
	if i, found := s.indexOf(key); found {
		s.byKind[key.Kind] = slices.Delete(s.byKind[key.Kind], i, i+1)
	}
}

// Calls returns the number of API calls served (the operator-automation
// experiment counts operations through this).
func (s *APIServer) Calls() int64 { return s.calls }

func (s *APIServer) charge(p *sim.Proc) {
	s.calls++
	p.Sleep(roundTrip)
}

// Create stores a new object, assigning its first resource version (written
// back to obj). The store keeps its own copy: obj stays the caller's.
func (s *APIServer) Create(p *sim.Proc, obj Object) error {
	s.charge(p)
	m := obj.GetMeta()
	key := m.Key()
	if key.Name == "" || key.Kind == "" {
		return errors.New("platform: object needs kind and name")
	}
	if _, ok := s.objects[key]; ok {
		return &StatusError{Err: ErrExists, Key: key}
	}
	s.rv++
	m.ResourceVersion = s.rv
	m.CreatedAt = s.env.Now()
	stored := obj.DeepCopy()
	s.indexPut(key, stored)
	s.notify(Event{Type: Added, Object: stored})
	return nil
}

// Update replaces an object; the caller's copy must carry the current
// resource version or the update fails with ErrConflict. On success obj
// carries the new resource version and the store holds its own copy, so the
// caller may keep mutating and re-submitting obj. Passing the stored object
// itself (a Get result mutated in place) breaks the read-only contract and
// panics.
func (s *APIServer) Update(p *sim.Proc, obj Object) error {
	s.charge(p)
	m := obj.GetMeta()
	key := m.Key()
	cur, ok := s.objects[key]
	if !ok {
		return &StatusError{Err: ErrNotFound, Key: key}
	}
	if cur == obj {
		panic("platform: Update of " + key.String() + " with the stored object itself; DeepCopy before mutating")
	}
	cm := cur.GetMeta()
	if cm.ResourceVersion != m.ResourceVersion {
		return &StatusError{Err: ErrConflict, Key: key, Have: m.ResourceVersion, Stored: cm.ResourceVersion}
	}
	s.rv++
	m.ResourceVersion = s.rv
	m.CreatedAt = cm.CreatedAt
	stored := obj.DeepCopy()
	s.indexPut(key, stored)
	s.notify(Event{Type: Modified, Object: stored})
	return nil
}

// Get returns the stored object — shared and read-only; DeepCopy it before
// mutating. It is one charged round trip plus Cached.
func (s *APIServer) Get(p *sim.Proc, key ObjectKey) (Object, error) {
	s.charge(p)
	return s.Cached(key)
}

// Cached is Get answered by the informer cache a reconciler reads, as
// operator-SDK clients answer reads: the same shared read-only object, no
// round trip, no charge. Watches here deliver at the instant of the write,
// so the cache is exactly as fresh as the store; writes stay charged calls
// with their ResourceVersion check.
func (s *APIServer) Cached(key ObjectKey) (Object, error) {
	cur, ok := s.objects[key]
	if !ok {
		return nil, &StatusError{Err: ErrNotFound, Key: key}
	}
	return cur, nil
}

// List returns all objects of a kind, optionally restricted to a namespace
// (empty string = all), sorted by (namespace, name). The slice is the
// caller's; the objects are the stored ones — shared and read-only. It is
// one charged round trip plus CachedList.
func (s *APIServer) List(p *sim.Proc, kind Kind, namespace string) []Object {
	s.charge(p)
	return s.CachedList(kind, namespace)
}

// CachedList is List answered by the informer cache (see Cached): same
// order, same ownership, no charge.
func (s *APIServer) CachedList(kind Kind, namespace string) []Object {
	all := s.byKind[kind]
	if namespace == "" {
		return slices.Clone(all)
	}
	// The empty name sorts before every name, so this is the namespace's
	// first slot whether or not anything is in it.
	lo, _ := s.indexOf(ObjectKey{Kind: kind, Namespace: namespace})
	hi := lo
	for hi < len(all) && all[hi].GetMeta().Namespace == namespace {
		hi++
	}
	return slices.Clone(all[lo:hi])
}

// Delete removes the object.
func (s *APIServer) Delete(p *sim.Proc, key ObjectKey) error {
	s.charge(p)
	cur, ok := s.objects[key]
	if !ok {
		return &StatusError{Err: ErrNotFound, Key: key}
	}
	s.indexDelete(key)
	s.notify(Event{Type: Deleted, Object: cur})
	return nil
}

// notify fans an event out to matching watches, compacting stopped watches
// out of the registry as it goes. Without the compaction a long-lived churny
// run (controllers starting and stopping per tenant) appends stopped
// watches that every notify must skip forever — the watch leak.
func (s *APIServer) notify(ev Event) {
	m := ev.Object.GetMeta()
	// Boxed once, on the first delivery: every watcher's queue holds the
	// same interface value, and an event nobody watches allocates nothing.
	var boxed interface{}
	deliver := func(w *Watch) {
		if boxed == nil {
			boxed = ev
		}
		w.ch.Put(boxed)
	}
	kept := s.watches[:0]
	for _, w := range s.watches {
		if w.stopped {
			continue
		}
		kept = append(kept, w)
		if w.kind != m.Kind {
			continue
		}
		deliver(w)
	}
	for i := len(kept); i < len(s.watches); i++ {
		s.watches[i] = nil // release the stopped watch for GC
	}
	s.watches = kept
	key := m.Key()
	if bucket, ok := s.keyed[key]; ok {
		keptK := bucket[:0]
		for _, w := range bucket {
			if w.stopped {
				continue
			}
			keptK = append(keptK, w)
			deliver(w)
		}
		if len(keptK) == 0 {
			delete(s.keyed, key)
		} else {
			for i := len(keptK); i < len(bucket); i++ {
				bucket[i] = nil
			}
			s.keyed[key] = keptK
		}
	}
}

// Watch streams events for one kind — optionally for one object key only.
// Events carry the stored objects themselves (read-only, see Event); the
// watch starts empty (list first for existing state, the standard
// contract).
type Watch struct {
	kind    Kind
	keyed   bool
	key     ObjectKey
	ch      *sim.Chan
	stopped bool
}

// Watch registers a new watch for the kind.
func (s *APIServer) Watch(kind Kind) *Watch {
	w := &Watch{kind: kind, ch: s.env.NewChan()}
	s.watches = append(s.watches, w)
	return w
}

// WatchKey registers a watch delivering only events for one object key —
// the field-selector form clients use to wait on a single object's status
// instead of polling Get in a loop.
func (s *APIServer) WatchKey(key ObjectKey) *Watch {
	w := &Watch{kind: key.Kind, keyed: true, key: key, ch: s.env.NewChan()}
	s.keyed[key] = append(s.keyed[key], w)
	return w
}

// Names returns the names of all objects of a kind, sorted — an uncharged
// introspection helper (like Calls/WatchCount) for invariant checks, not a
// modeled API call.
func (s *APIServer) Names(kind Kind) []string {
	var out []string
	for _, o := range s.byKind[kind] {
		out = append(out, o.GetMeta().Name)
	}
	sort.Strings(out)
	return out
}

// Each calls fn with every stored object, kinds in name order and each
// kind's objects in (namespace, name) order — an uncharged introspection
// helper like Names, for invariant checks that audit the store itself (the
// read-only contract: an object's content never changes under one
// resource version). fn must not mutate what it is shown.
func (s *APIServer) Each(fn func(Object)) {
	kinds := make([]Kind, 0, len(s.byKind))
	for k := range s.byKind {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		for _, o := range s.byKind[k] {
			fn(o)
		}
	}
}

// WatchCount returns the number of registered watches still delivering
// (stopped watches linger only until the next notify compacts them).
func (s *APIServer) WatchCount() int {
	n := 0
	for _, w := range s.watches {
		if !w.stopped {
			n++
		}
	}
	for _, bucket := range s.keyed {
		for _, w := range bucket {
			if !w.stopped {
				n++
			}
		}
	}
	return n
}

// Next blocks until an event arrives.
func (w *Watch) Next(p *sim.Proc) Event { return w.ch.Get(p).(Event) }

// NextTimeout is Next with a deadline; ok is false on timeout.
func (w *Watch) NextTimeout(p *sim.Proc, d time.Duration) (Event, bool) {
	v, ok := w.ch.GetTimeout(p, d)
	if !ok {
		return Event{}, false
	}
	return v.(Event), true
}

// Pending returns the number of undelivered events.
func (w *Watch) Pending() int { return w.ch.Len() }

// Stop detaches the watch; buffered events remain readable.
func (w *Watch) Stop() { w.stopped = true }
