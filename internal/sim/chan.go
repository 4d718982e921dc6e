package sim

import (
	"time"

	"repro/internal/ring"
)

// Chan is an unbounded FIFO queue carrying values of type T between
// simulated processes. Put never blocks; Get blocks the calling process until
// an item is available. Items are delivered in insertion order, and blocked
// getters are served in arrival order. Items are held by value: a queue in
// steady state allocates nothing, whatever T is.
type Chan[T any] struct {
	items ring.Ring[T]
	avail *Event // triggered whenever items transitions from empty
}

// NewChan returns an empty channel of T bound to the environment.
func NewChan[T any](env *Env) *Chan[T] {
	return &Chan[T]{avail: env.NewEvent()}
}

// Put appends v to the queue and wakes one round of waiters.
func (c *Chan[T]) Put(v T) {
	c.items.Push(v)
	c.avail.Trigger()
}

// Len returns the number of queued items.
func (c *Chan[T]) Len() int { return c.items.Len() }

// Avail returns an event that triggers when the channel next becomes
// non-empty (already triggered if it is now). Use with Proc.WaitAny to
// select between data arrival and other conditions. Wait on it before
// calling the channel again: the channel re-arms the same event once the
// queue has emptied and every process the event woke has resumed.
func (c *Chan[T]) Avail() *Event {
	if c.items.Len() > 0 {
		c.avail.Trigger()
		return c.avail
	}
	return c.armed()
}

// armed returns the availability event of an empty channel, untriggered.
func (c *Chan[T]) armed() *Event {
	c.avail = c.avail.Renew()
	return c.avail
}

// Get removes and returns the head item, blocking the process until one is
// available.
func (c *Chan[T]) Get(p *Proc) T {
	for c.items.Len() == 0 {
		p.Wait(c.armed())
	}
	v, _ := c.items.Pop()
	return v
}

// GetTimeout is Get with a deadline; ok is false (and v the zero T) when the
// timeout fired before an item arrived.
func (c *Chan[T]) GetTimeout(p *Proc, d time.Duration) (v T, ok bool) {
	deadline := p.Now() + d
	for c.items.Len() == 0 {
		remain := deadline - p.Now()
		if remain <= 0 {
			return v, false
		}
		if !p.WaitTimeout(c.armed(), remain) && c.items.Len() == 0 {
			return v, false
		}
	}
	return c.items.Pop()
}
