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
// key. Clients probe for objects that are usually absent (Get, then
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

// Event is one watch notification, delivered by value: each watcher's queue
// holds its own Event, so fan-out allocates nothing. Object is the stored
// object itself (for Deleted, the last stored version), shared with the
// store, every other watcher and every reader: it is read-only — DeepCopy
// before mutating.
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
// immutable: every write installs a new object, and that same pointer is
// what Get, List, Cached and watch events (values, see Event) hand to every
// reader. Readers must treat what they receive as read-only and DeepCopy
// before a read-modify-write; in exchange reads copy nothing, and a Cached
// miss is ok == false with nothing allocated. Create stores a deep copy;
// Update's copy shares the replaced version's Labels and PVCNames where the
// caller's equal them, and never keeps the caller's own. A status-only write
// may hand Update a struct copy of the stored object (c := *stored, then set
// Status) whose slices and maps the caller must not touch.
type APIServer struct {
	env *sim.Env
	// kinds is the one index: a run per kind in kind-name order (six kinds,
	// so a scan finds one), each sorted by (namespace, name). A namespace's
	// objects are one stretch found by binary search, so List costs
	// O(log n + result) — at fleet scale a whole-kind scan per List call is
	// quadratic in tenants.
	kinds []kindRun
	rv    int64
	// watches is the one watch registry: a bucket per key, in registration
	// order. A kind watch sits under its kind's bare key (ObjectKey{Kind:
	// kind}), which names no object, since every object has a name. A notify
	// touches the changed object's two buckets instead of every watch
	// (quadratic at fleet scale).
	watches map[ObjectKey][]*Watch
	calls   int64
}

// kindRun is one kind's objects. An entry carries its key strings inline,
// so a search compares them without calling GetMeta through the interface.
type kindRun struct {
	kind    Kind
	entries []entry
}

type entry struct {
	namespace, name string
	obj             Object
}

// NewAPIServer returns an empty store.
func NewAPIServer(env *sim.Env, _ APIConfig) *APIServer {
	return &APIServer{env: env, watches: make(map[ObjectKey][]*Watch)}
}

// run returns kind's run, or nil when nothing of that kind was ever stored.
func (s *APIServer) run(kind Kind) *kindRun {
	for i := range s.kinds {
		if s.kinds[i].kind == kind {
			return &s.kinds[i]
		}
	}
	return nil
}

// lookup returns key's run (nil if its kind has none), the slot key sorts
// at in it, and whether the object is there.
func (s *APIServer) lookup(key ObjectKey) (r *kindRun, i int, found bool) {
	if r = s.run(key.Kind); r == nil {
		return nil, 0, false
	}
	lo, hi := 0, len(r.entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		c := strings.Compare(r.entries[h].namespace, key.Namespace)
		if c == 0 {
			if c = strings.Compare(r.entries[h].name, key.Name); c == 0 {
				return r, h, true
			}
		}
		if c < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return r, lo, false
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
	r, i, found := s.lookup(key)
	if found {
		return &StatusError{Err: ErrExists, Key: key}
	}
	s.rv++
	m.ResourceVersion = s.rv
	m.CreatedAt = s.env.Now()
	stored := obj.DeepCopy()
	if r == nil { // the kind's first object: its run goes in kind-name order
		k := sort.Search(len(s.kinds), func(k int) bool { return s.kinds[k].kind >= key.Kind })
		s.kinds = slices.Insert(s.kinds, k, kindRun{kind: key.Kind})
		r = &s.kinds[k]
	}
	r.entries = slices.Insert(r.entries, i, entry{key.Namespace, key.Name, stored})
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
	r, i, found := s.lookup(key)
	if !found {
		return &StatusError{Err: ErrNotFound, Key: key}
	}
	cur := r.entries[i].obj
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
	stored := obj.storeCopy(cur)
	r.entries[i].obj = stored
	s.notify(Event{Type: Modified, Object: stored})
	return nil
}

// Get returns the stored object — shared and read-only; DeepCopy it before
// mutating. It is one charged round trip plus Cached.
func (s *APIServer) Get(p *sim.Proc, key ObjectKey) (Object, error) {
	s.charge(p)
	if cur, ok := s.Cached(key); ok {
		return cur, nil
	}
	return nil, &StatusError{Err: ErrNotFound, Key: key}
}

// Cached is Get answered by the informer cache a reconciler reads, as
// operator-SDK clients answer reads: the same shared read-only object, no
// round trip, no charge. A miss is ok == false and allocates nothing (a
// reconciler probes for objects that are usually absent); a caller that
// must report it builds Get's &StatusError{Err: ErrNotFound, Key: key}.
// Watches here deliver at the instant of the write, so the cache is exactly
// as fresh as the store; writes stay charged calls with their
// ResourceVersion check.
func (s *APIServer) Cached(key ObjectKey) (Object, bool) {
	if r, i, found := s.lookup(key); found {
		return r.entries[i].obj, true
	}
	return nil, false
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
	// The empty name sorts before every name, so lo is the namespace's
	// first slot whether or not anything is in it.
	r, lo, _ := s.lookup(ObjectKey{Kind: kind, Namespace: namespace})
	if r == nil {
		return nil
	}
	hi := len(r.entries)
	if namespace != "" {
		for hi = lo; hi < len(r.entries) && r.entries[hi].namespace == namespace; hi++ {
		}
	}
	out := make([]Object, hi-lo)
	for j := range out {
		out[j] = r.entries[lo+j].obj
	}
	return out
}

// Delete removes the object. Deleting an absent object succeeds: it is
// still one charged round trip, and it notifies no watch.
func (s *APIServer) Delete(p *sim.Proc, key ObjectKey) {
	s.charge(p)
	if r, i, found := s.lookup(key); found {
		cur := r.entries[i].obj
		r.entries = slices.Delete(r.entries, i, i+1)
		s.notify(Event{Type: Deleted, Object: cur})
	}
}

// notify fans an event out to the object's kind watches, then to its key
// watches, each bucket in registration order.
func (s *APIServer) notify(ev Event) {
	m := ev.Object.GetMeta()
	s.deliver(ObjectKey{Kind: m.Kind}, ev)
	s.deliver(m.Key(), ev)
}

// deliver puts ev on every live watch of one bucket, compacting stopped
// watches out as it goes. Without the compaction a long-lived churny run
// (controllers starting and stopping per tenant) keeps stopped watches that
// every notify must skip forever — the watch leak.
func (s *APIServer) deliver(key ObjectKey, ev Event) {
	bucket := s.watches[key]
	kept := bucket[:0]
	for _, w := range bucket {
		if !w.stopped {
			kept = append(kept, w)
			w.ch.Put(ev)
		}
	}
	if len(kept) == len(bucket) {
		return
	}
	clear(bucket[len(kept):]) // release the stopped watches for GC
	if len(kept) == 0 {
		delete(s.watches, key)
	} else {
		s.watches[key] = kept
	}
}

// Watch streams events for one kind or one object key. Events carry the
// stored objects themselves (read-only, see Event); the watch starts empty
// (list first for existing state, the standard contract).
type Watch struct {
	ch      sim.Chan[Event] // by value: the queue is no allocation of its own
	stopped bool
}

// Watch registers a new watch for the kind.
func (s *APIServer) Watch(kind Kind) *Watch { return s.WatchKey(ObjectKey{Kind: kind}) }

// WatchKey registers a watch delivering only events for one object key —
// the field-selector form clients use to wait on a single object's status
// instead of polling Get in a loop.
func (s *APIServer) WatchKey(key ObjectKey) *Watch {
	w := &Watch{ch: *sim.NewChan[Event](s.env)}
	s.watches[key] = append(s.watches[key], w)
	return w
}

// Names returns the names of all objects of a kind, sorted — an uncharged
// introspection helper (like Calls/WatchCount) for invariant checks, not a
// modeled API call.
func (s *APIServer) Names(kind Kind) []string {
	var out []string
	if r := s.run(kind); r != nil {
		for _, e := range r.entries {
			out = append(out, e.name)
		}
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
	for _, r := range s.kinds {
		for _, e := range r.entries {
			fn(e.obj)
		}
	}
}

// WatchCount returns the number of registered watches still delivering
// (stopped watches linger only until the next notify of their bucket
// compacts them).
func (s *APIServer) WatchCount() int {
	n := 0
	for _, bucket := range s.watches {
		for _, w := range bucket {
			if !w.stopped {
				n++
			}
		}
	}
	return n
}

// Next blocks until an event arrives.
func (w *Watch) Next(p *sim.Proc) Event { return w.ch.Get(p) }

// NextTimeout is Next with a deadline; ok is false on timeout.
func (w *Watch) NextTimeout(p *sim.Proc, d time.Duration) (Event, bool) {
	return w.ch.GetTimeout(p, d)
}

// Pending returns the number of undelivered events.
func (w *Watch) Pending() int { return w.ch.Len() }

// Stop detaches the watch; buffered events remain readable.
func (w *Watch) Stop() { w.stopped = true }
