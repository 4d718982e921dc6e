package platform

import (
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Reconciler is the level-triggered reconcile hook: bring the world to the
// state the object (named by key) declares. It must be idempotent; the
// controller retries on error with backoff.
type Reconciler interface {
	Reconcile(p *sim.Proc, key ObjectKey) error
}

// ReconcilerFunc adapts a function to the Reconciler interface.
type ReconcilerFunc func(p *sim.Proc, key ObjectKey) error

// Reconcile calls f.
func (f ReconcilerFunc) Reconcile(p *sim.Proc, key ObjectKey) error { return f(p, key) }

// ControllerConfig tunes retry behaviour.
type ControllerConfig struct {
	// RetryDelay is the requeue delay after a reconcile error
	// (default 10ms, doubling per consecutive failure up to maxRetryDelay).
	RetryDelay time.Duration
	// Telemetry, when set, records per-controller reconcile latency,
	// requeues, and reconcile-pass spans into the registry.
	Telemetry *telemetry.Registry
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.RetryDelay <= 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	return c
}

// maxRetryDelay caps the requeue backoff.
const maxRetryDelay = time.Second

// Controller watches one kind and funnels object keys through a
// deduplicating work queue into a reconciler — the operator-SDK pattern the
// namespace operator is built with (§III-B1).
type Controller struct {
	name    string
	env     *sim.Env
	api     *APIServer
	kind    Kind
	mapFn   func(Event) (ObjectKey, bool)
	rec     Reconciler
	cfg     ControllerConfig
	queue   ring.Ring[ObjectKey]
	queued  map[ObjectKey]bool
	wake    *sim.Event
	stop    *sim.Event
	stopped bool
	fails   map[ObjectKey]int

	reconciles int64
	errors     int64

	// Telemetry instruments (nil handles no-op when the plane is disabled).
	tel      *telemetry.Registry
	latency  *telemetry.Histogram
	requeues *telemetry.Counter
}

// NewController builds a controller for kind on the API server. mapFn
// converts each watch event into the key to reconcile (false = none);
// nil maps events to their own object key.
func NewController(env *sim.Env, api *APIServer, name string, kind Kind,
	mapFn func(Event) (ObjectKey, bool), rec Reconciler, cfg ControllerConfig) *Controller {
	if mapFn == nil {
		mapFn = func(ev Event) (ObjectKey, bool) { return ev.Object.GetMeta().Key(), true }
	}
	c := &Controller{
		name:   name,
		env:    env,
		api:    api,
		kind:   kind,
		mapFn:  mapFn,
		rec:    rec,
		cfg:    cfg.withDefaults(),
		queued: make(map[ObjectKey]bool),
		wake:   env.NewEvent(),
		stop:   env.NewEvent(),
		fails:  make(map[ObjectKey]int),
	}
	if reg := c.cfg.Telemetry; reg != nil {
		c.tel = reg
		c.latency = reg.Histogram("controller.reconcile.latency", telemetry.L("controller", name))
		c.requeues = reg.Counter("controller.requeues", telemetry.L("controller", name))
	}
	return c
}

// Enqueue adds a key to the work queue (deduplicated while pending).
func (c *Controller) Enqueue(key ObjectKey) {
	if c.queued[key] {
		return
	}
	c.queued[key] = true
	c.queue.Push(key)
	c.wake.Trigger()
}

// Start launches the watch pump and the worker.
func (c *Controller) Start() {
	w := c.api.Watch(c.kind)
	c.env.Process(c.name+":watch", func(p *sim.Proc) {
		defer w.Stop() // detach so the API server can compact the watch away
		for {
			for w.Pending() == 0 {
				if p.WaitAny(watchAvail(w), c.stop) == 1 {
					return
				}
			}
			if key, ok := c.mapFn(w.Next(p)); ok {
				c.Enqueue(key)
			}
		}
	})
	c.env.Process(c.name+":worker", func(p *sim.Proc) {
		for {
			for c.queue.Len() == 0 {
				if c.wake.Triggered() {
					c.wake = c.wake.Renew() // only this worker ever waits on it
				}
				if p.WaitAny(c.wake, c.stop) == 1 {
					return
				}
			}
			key, _ := c.queue.Pop()
			delete(c.queued, key)
			c.reconciles++
			var sp telemetry.Span
			start := p.Now()
			if c.tel != nil {
				sp = c.tel.StartSpan("reconcile", key.String(), c.name)
			}
			err := c.rec.Reconcile(p, key)
			sp.End()
			c.latency.Record(p.Now() - start)
			if err != nil {
				c.errors++
				c.requeues.Inc()
				c.fails[key]++
				delay := c.cfg.RetryDelay << uint(c.fails[key]-1)
				if delay > maxRetryDelay || delay <= 0 {
					delay = maxRetryDelay
				}
				// Requeue after backoff without blocking the worker. An
				// inline timer step is enough — Enqueue consumes no time —
				// so no retry goroutine (and its two handoffs) is spawned.
				k := key
				c.env.After(delay, func() {
					if !c.stopped {
						c.Enqueue(k)
					}
				})
				continue
			}
			delete(c.fails, key)
		}
	})
}

// Stop halts the controller's processes.
func (c *Controller) Stop() {
	c.stopped = true
	c.stop.Trigger()
}

// Reconciles returns the number of reconcile invocations.
func (c *Controller) Reconciles() int64 { return c.reconciles }

// Errors returns the number of reconcile errors.
func (c *Controller) Errors() int64 { return c.errors }

// QueueLen returns the number of keys waiting.
func (c *Controller) QueueLen() int { return c.queue.Len() }

// watchAvail adapts a Watch's availability to an event WaitAny can select
// on: it returns an event that triggers when the watch has pending items.
func watchAvail(w *Watch) *sim.Event { return w.ch.Avail() }
