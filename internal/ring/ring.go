// Package ring is the FIFO the kernel's queues share (sim.Chan items,
// sim.Resource waiters, the platform controller work queue): a growable
// circular buffer. A queue popped with q = q[1:] keeps every popped element
// reachable from the head of its backing array until the next regrowth, and
// regrows forever because it abandons capacity as it advances; the ring
// clears each slot as it pops and reuses its storage, so a queue in steady
// state allocates nothing and a drained queue pins nothing.
package ring

// Ring is a FIFO of T. The zero value is an empty queue.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element; ok is false on an empty queue.
// The vacated slot is zeroed so the ring holds no reference to what it
// handed out.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// grow doubles the storage, unrolling the queue to start at index 0.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
