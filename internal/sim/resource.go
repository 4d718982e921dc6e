package sim

import "repro/internal/ring"

// Resource is a counted resource (semaphore) with FIFO admission. It models
// service stations with limited parallelism: disk heads, controller CPUs,
// replication apply slots. Acquire blocks the process until a unit is free.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waitq    ring.Ring[*Proc] // blocked acquirers, longest-waiting first
}

// NewResource returns a resource with the given capacity (>= 1).
func (e *Env) NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, capacity: capacity}
}

// Acquire obtains one unit, blocking in FIFO order when none are free.
func (r *Resource) Acquire(p *Proc) {
	if r.TryAcquire() {
		return
	}
	r.waitq.Push(p)
	p.park()
	// Ownership was transferred by Release; inUse already accounts for us.
}

// TryAcquire obtains one unit if one is free right now and reports whether it
// did; it never blocks. It refuses while anyone is queued, so a holder that
// widens itself this way cannot overtake a waiter: admission stays FIFO.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waitq.Len() == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, handing it directly to the longest waiter if any
// (one resume scheduled at the current instant, exactly what triggering a
// per-acquire event cost in kernel operations).
//
// Like Event.Trigger, Release must not hand off from inside a parallel
// round: the resume cannot be attributed to a step. Resources contended
// across domains therefore stay on domain 0.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if next, ok := r.waitq.Pop(); ok {
		if r.env.inRound {
			panic("sim: Resource.Release with waiters during a parallel round")
		}
		r.env.scheduleEntry(next, r.env.now) // unit stays in use, transferred to the waiter
		return
	}
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a unit.
func (r *Resource) QueueLen() int { return r.waitq.Len() }
