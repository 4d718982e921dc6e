package platform

import (
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The requeue delay after a reconcile error: retryDelay, doubling per
// consecutive failure up to maxRetryDelay.
const (
	retryDelay    = 10 * time.Millisecond
	maxRetryDelay = time.Second
)

// reconcileWorkers bounds the reconciles one controller runs at once. Eight is
// the array controller's default Parallelism (storage.Config), the resource
// every provisioning reconcile ends at: more workers than that only move the
// queue from the controller to the array.
const reconcileWorkers = 8

// keyState is where a key stands in the work queue. The three bits are
// client-go's queue / processing / dirty sets folded into one map entry; a
// key with no entry is at rest.
type keyState uint8

const (
	keyQueued keyState = 1 << iota // waiting in the ring
	keyActive                      // a worker is reconciling it
	keyDirty                       // an event arrived while active: queue it again on return
)

// queuedKey is one work-queue entry: the key and when it was queued.
type queuedKey struct {
	key ObjectKey
	at  time.Duration
}

// source is one watched kind and how its events map to reconcile keys.
type source struct {
	kind  Kind
	mapFn func(Event) (ObjectKey, bool)
}

// Controller watches one kind (plus any added with Watches) and funnels
// object keys through a deduplicating work queue into a reconciler — the
// operator-SDK pattern the namespace operator is built with (§III-B1).
//
// The queue is client-go's: a key waits at most once, a key being reconciled
// is never handed to a second worker, and an event for it that arrives
// meanwhile queues it again exactly once, when that reconcile returns. Up to
// reconcileWorkers processes pop keys; every one after the first starts only
// on backlog (see Enqueue), so a controller that never has two keys waiting
// is the one worker process it always was.
type Controller struct {
	name  string
	env   *sim.Env
	api   *APIServer
	srcs  []source
	rec   func(p *sim.Proc, key ObjectKey) error
	queue ring.Ring[queuedKey]
	state map[ObjectKey]keyState
	// idle holds the park events of the workers waiting for a key, longest
	// parked first. Each worker parks on an event of its own, so the worker
	// is the only process that ever waits on it (what Event.Renew needs).
	idle    ring.Ring[*sim.Event]
	workers int // worker processes started
	stop    *sim.Event
	stopped bool
	fails   map[ObjectKey]int

	reconciles int64

	// Telemetry instruments (nil ones no-op when the plane is disabled).
	tel       *telemetry.Registry
	latency   *metrics.Histogram
	queueWait *metrics.Histogram
	requeues  *metrics.Counter
	started   *metrics.Gauge
}

// NewController builds a controller for kind on the API server, each watch
// event queueing its own object's key. rec is the level-triggered reconcile:
// bring the world to the state the keyed object declares. It must be
// idempotent; the controller retries it on error with backoff. tel, when
// set, records per-controller reconcile latency, queue wait (enqueue to
// pop), requeues, workers started, and reconcile-pass spans (one track per
// worker).
func NewController(env *sim.Env, api *APIServer, name string, kind Kind,
	rec func(p *sim.Proc, key ObjectKey) error, tel *telemetry.Registry) *Controller {
	c := &Controller{
		name:  name,
		env:   env,
		api:   api,
		srcs:  []source{{kind, func(ev Event) (ObjectKey, bool) { return ev.Object.GetMeta().Key(), true }}},
		rec:   rec,
		state: make(map[ObjectKey]keyState),
		stop:  env.NewEvent(),
		fails: make(map[ObjectKey]int),
		tel:   tel,
	}
	ctl := telemetry.L("controller", name)
	c.latency = c.tel.Histogram("controller.reconcile.latency", ctl)
	c.queueWait = c.tel.Histogram("controller.queue.wait", ctl)
	c.requeues = c.tel.Counter("controller.requeues", ctl)
	c.started = c.tel.Gauge("controller.workers", ctl)
	return c
}

// Watches adds a second (third, ...) kind whose events mapFn turns into keys
// of this controller's queue — controller-runtime's Watches with
// EnqueueRequestsFromMapFunc. Every kind feeds the one queue, so per-key
// exclusion covers every event that names the key: an event of any kind for
// a key being reconciled marks it dirty instead of starting a second
// reconcile beside it. Call before Start.
func (c *Controller) Watches(kind Kind, mapFn func(Event) (ObjectKey, bool)) *Controller {
	c.srcs = append(c.srcs, source{kind, mapFn})
	return c
}

// Enqueue adds a key to the work queue: dropped while the key already waits,
// remembered (dirty) while it is being reconciled. A queued key goes to the
// longest-parked worker; with none parked, one more worker starts when the
// keys waiting outnumber the workers there are. A worker is a coroutine and
// costs what any process costs, so "nobody is parked" alone must not start
// one: one tenant's keys arrive while its single worker is busy and find
// that worker free before a second could help.
func (c *Controller) Enqueue(key ObjectKey) {
	switch st := c.state[key]; {
	case st&keyQueued != 0:
		return
	case st&keyActive != 0:
		c.state[key] = st | keyDirty
		return
	}
	c.push(key)
	if wake, ok := c.idle.Pop(); ok {
		wake.Trigger()
	} else if 0 < c.workers && c.workers < reconcileWorkers && c.queue.Len() > c.workers {
		c.startWorker()
	}
}

// push appends a key at rest (or coming off a worker) to the ring.
func (c *Controller) push(key ObjectKey) {
	c.state[key] = keyQueued
	c.queue.Push(queuedKey{key: key, at: c.env.Now()})
}

// Start launches one watch pump per watched kind, named by that kind, and
// the first worker.
func (c *Controller) Start() {
	for _, src := range c.srcs {
		w, mapFn := c.api.Watch(src.kind), src.mapFn
		c.env.Process(c.name+":watch:"+string(src.kind), func(p *sim.Proc) {
			defer w.Stop() // detach so the API server can compact the watch away
			for {
				for w.Pending() == 0 {
					if p.WaitAny(w.ch.Avail(), c.stop) == 1 {
						return
					}
				}
				if key, ok := mapFn(w.Next(p)); ok {
					c.Enqueue(key)
				}
			}
		})
	}
	c.startWorker()
}

// startWorker launches one more worker process on the queue, named by its
// index. Its spans go on a track of its own — reconciles of different
// workers overlap, and one trace row may only hold spans that nest — the
// first worker keeping the controller's bare name.
func (c *Controller) startWorker() {
	idx := strconv.Itoa(c.workers)
	track := c.name
	if c.workers > 0 && c.tel != nil {
		track += "/w" + idx
	}
	c.workers++
	c.started.Set(int64(c.workers))
	c.env.Process(c.name+":worker:"+idx, func(p *sim.Proc) {
		wake := c.env.NewEvent()
		for !c.stopped {
			if c.queue.Len() > 0 {
				c.reconcile(p, track)
				continue
			}
			wake = wake.Renew() // only this worker ever waits on it
			c.idle.Push(wake)
			if p.WaitAny(wake, c.stop) == 1 {
				return
			}
		}
	})
}

// reconcile pops the head key and runs the reconciler on it. The key is
// active for the duration, which is what keeps a second worker off it.
func (c *Controller) reconcile(p *sim.Proc, track string) {
	head, _ := c.queue.Pop()
	key, start := head.key, p.Now()
	c.state[key] = keyActive
	c.queueWait.Record(start - head.at)
	c.reconciles++
	var sp telemetry.Span
	if c.tel != nil {
		sp = c.tel.StartSpan("reconcile", key.String(), track)
	}
	err := c.rec(p, key)
	sp.End()
	c.latency.Record(p.Now() - start)
	// Back to rest, or straight back into the queue if an event came in
	// meanwhile; this worker is about to look at the queue, so nobody needs
	// waking for it.
	if c.state[key]&keyDirty != 0 {
		c.push(key)
	} else {
		delete(c.state, key)
	}
	if err == nil {
		delete(c.fails, key)
		return
	}
	c.requeues.Inc()
	c.fails[key]++
	delay := retryDelay << uint(c.fails[key]-1)
	if delay > maxRetryDelay || delay <= 0 {
		delay = maxRetryDelay
	}
	// Requeue after backoff without blocking the worker. An inline timer
	// step is enough — Enqueue consumes no time — so no retry goroutine
	// (and its two handoffs) is spawned.
	c.env.After(delay, func() {
		if !c.stopped {
			c.Enqueue(key)
		}
	})
}

// Stop halts the controller's processes: parked workers return at once, a
// busy one once its reconcile returns, leaving any queued keys in the queue.
func (c *Controller) Stop() {
	c.stopped = true
	c.stop.Trigger()
}

// Reconciles returns the number of reconcile invocations.
func (c *Controller) Reconciles() int64 { return c.reconciles }

// QueueLen returns the number of keys waiting.
func (c *Controller) QueueLen() int { return c.queue.Len() }
