// Package sim provides a deterministic discrete-event simulation kernel.
//
// All components of the backup system (storage arrays, network links,
// databases, workloads) execute as simulated processes on a shared virtual
// clock. Processes are iter.Pull coroutines that cooperate with the
// scheduler: exactly one process runs at a time, and time advances only
// when every process is blocked in Sleep or Wait. Given a fixed RNG seed,
// runs are fully reproducible, which is what lets the experiment harness
// regenerate the paper's figures deterministically.
//
// The kernel has three kinds of step. Ordinary steps resume a process
// coroutine (a "handoff": the runtime switches to it and back directly, with
// no channel and no scheduler wake-up); inline steps (Env.Immediate,
// Env.After, Proc.Do) run a plain function on the scheduler goroutine with
// no handoff at all, which is what makes zero-duration bookkeeping work
// (apply a replicated record, requeue a controller key) nearly free; and a
// process whose own wake-up is the next step in the order resumes in place,
// with no switch (Env.resumeInPlace).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, start processes with Process, then call Run.
//
// The event queue is a binary heap of indexes into a slab of scheduled
// entries. Entries are recycled through a free-list, so steady-state
// scheduling allocates nothing — the kernel hot path is what bounds how
// large a scenario (e.g. the E11 tenant fleet) is affordable.
//
// Same-timestamp resumes are batched: an entry scheduled AT the current
// instant while the loop is running (the bulk of event traffic — every
// Event.Trigger resumes its waiters "now") bypasses the heap into a FIFO
// that drains before time advances. Entries created during an instant
// always carry larger seqs than every heap entry due at that instant, so
// processing heap-due-now first and then the FIFO preserves the exact
// (at, seq) total order the heap alone would produce — batching changes
// the cost per resume, never the schedule.
type Env struct {
	now       time.Duration
	slab      []scheduled // entry storage; index 0 is a reserved sentinel
	heap      []int32     // heap of slab indexes ordered by (at, seq)
	today     []int32     // FIFO of entries due at the current instant
	todayHead int         // next today entry to pop
	free      []int32     // recycled slab indexes
	seq       int64       // tiebreaker for events at the same timestamp
	rng       *rand.Rand
	running   bool
	horizon   time.Duration // Run's horizon while it runs (<= 0: none)
	blocked   int64         // processes waiting on an untriggered Event
	procs     int64         // live (started, unfinished) processes

	stats   statCounters
	traceOn bool
	trace   []TraceEntry
	prof    *simProfile // nil unless StartSimProfile

	// advance holds the registered OnAdvance observers, called in
	// registration order whenever virtual time moves forward.
	advance []func(from, to time.Duration)
}

// statCounters is the internal form of Stats.
type statCounters struct {
	heapPushes   int64
	fifoBypasses int64
	handoffs     int64
	inPlace      int64
	inlineSteps  int64
	timerCancels int64
}

// Stats is a snapshot of the kernel's scheduling counters — the measured
// form of the execution-model claims (how many steps the heap actually
// ordered, how many bypassed it, how many avoided a process handoff
// entirely).
type Stats struct {
	HeapPushes   int64 // entries ordered through the binary heap
	FifoBypasses int64 // same-instant entries that skipped the heap
	Handoffs     int64 // process resumes through a coroutine switch in and back out
	InPlace      int64 // process resumes run where the process blocked, with no switch
	InlineSteps  int64 // zero-duration steps run with no handoff
	TimerCancels int64 // timer entries removed from the heap eagerly

	// ParallelRounds and ParallelSteps always read 0: the kernel has one
	// sequential scheduler. They stay only because the benchmark harness
	// still reads them, and go when it next changes.
	ParallelRounds int64
	ParallelSteps  int64
}

// Stats returns a snapshot of the kernel counters.
func (e *Env) Stats() Stats {
	return Stats{
		HeapPushes:   e.stats.heapPushes,
		FifoBypasses: e.stats.fifoBypasses,
		Handoffs:     e.stats.handoffs,
		InPlace:      e.stats.inPlace,
		InlineSteps:  e.stats.inlineSteps,
		TimerCancels: e.stats.timerCancels,
	}
}

// TraceEntry is one executed step in the kernel's total order.
type TraceEntry struct {
	At  time.Duration
	Seq int64
}

// StartTrace begins recording the (at, seq) pair of every executed step.
// The replay tests use it to prove that one seed yields one step order.
func (e *Env) StartTrace() {
	e.trace = e.trace[:0]
	e.traceOn = true
}

// Trace returns the steps recorded since StartTrace.
func (e *Env) Trace() []TraceEntry { return e.trace }

// OnAdvance registers fn to be called every time virtual time advances: just
// before the clock moves from `from` to `to` (to > from), including the final
// cut to the horizon. Observers run between instants, after the instant
// being left has drained and before the next step executes: on the
// scheduler goroutine, or on the blocking process that resumes in place
// (resumeInPlace), from inside its Sleep or park. Either way no step is
// executing, so they may READ simulation state and nothing more. They must
// not schedule events, start processes, trigger events, or touch the RNG:
// an observer consumes no seqs and adds no steps, which is what lets the
// telemetry plane sample on the virtual clock without perturbing the
// (at, seq) total order.
func (e *Env) OnAdvance(fn func(from, to time.Duration)) {
	e.advance = append(e.advance, fn)
}

// advanceTo moves the clock to `to`, notifying OnAdvance observers first
// (they observe the fully-drained state of the instant being left).
func (e *Env) advanceTo(to time.Duration) {
	if to > e.now {
		for _, fn := range e.advance {
			fn(e.now, to)
		}
	}
	e.now = to
}

// NewEnv returns an environment whose random source is seeded with seed.
// The same seed always yields the same execution.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:  rand.New(rand.NewSource(seed)),
		slab: make([]scheduled, 1), // slab[0] reserved so ref 0 means "none"
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// scheduled is one entry in the event queue: resume a process (or run an
// inline function) at time at. Entries can be canceled in place (e.g. a
// timeout superseded by its event); heap-resident entries are removed
// eagerly on cancel, FIFO-resident ones are dropped when popped. Entries
// live in the environment's slab and are addressed by index (entryRef)
// because the slab reallocates as it grows. pos is the entry's index in the
// heap (-1 when it is not heap-resident) so cancellation can remove it
// without a scan.
type scheduled struct {
	at       time.Duration
	seq      int64
	proc     *Proc
	fn       func()
	pos      int32
	canceled bool
}

// entryRef addresses a slab entry; 0 means "no entry" (slab[0] is reserved).
type entryRef = int32

// allocEntry returns a fresh or recycled slab index.
func (e *Env) allocEntry() entryRef {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slab = append(e.slab, scheduled{})
	return entryRef(len(e.slab) - 1)
}

// freeEntry recycles a popped entry. Callers must not hold its ref after
// this; cancellation refs are only ever used while an entry is pending.
func (e *Env) freeEntry(id entryRef) {
	e.slab[id] = scheduled{pos: -1} // drop the proc pointer
	e.free = append(e.free, id)
}

// cancelEntry cancels a pending entry. Heap-resident entries are removed
// and recycled immediately — a canceled timer must not occupy heap space
// for its full original duration. FIFO-resident entries are marked and
// dropped when they surface.
func (e *Env) cancelEntry(id entryRef) {
	ent := &e.slab[id]
	if ent.pos >= 0 {
		e.heapRemoveAt(int(ent.pos))
		e.freeEntry(id)
		e.stats.timerCancels++
		return
	}
	ent.canceled = true
}

// schedule queues a step at time at: resume p, or run fn inline on the
// scheduler goroutine when p is nil (a step in the (at, seq) order with no
// process and no handoff).
func (e *Env) schedule(at time.Duration, p *Proc, fn func()) entryRef {
	e.seq++
	id := e.allocEntry()
	e.slab[id] = scheduled{at: at, seq: e.seq, proc: p, fn: fn, pos: -1}
	// Same-instant fast path: while the loop is draining the current
	// instant, a step due "now" skips both heap sifts — FIFO order is seq
	// order because seq only grows. Outside Run the heap keeps everything,
	// so pre-run setup entries order with scheduled ones as before.
	if e.running && at == e.now {
		e.today = append(e.today, id)
		e.stats.fifoBypasses++
	} else {
		e.heapPush(id)
		e.stats.heapPushes++
	}
	return id
}

// Immediate queues fn as an inline step at the current instant, ordered
// after everything already scheduled. It is the no-handoff replacement for
// spawning a throwaway process to run zero-duration work.
func (e *Env) Immediate(fn func()) { e.schedule(e.now, nil, fn) }

// After queues fn as an inline step d from now (d < 0 is treated as zero).
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, fn)
}

// entryLess orders heap entries by (at, seq).
func (e *Env) entryLess(a, b entryRef) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Env) heapPush(id entryRef) {
	e.heap = append(e.heap, id)
	i := len(e.heap) - 1
	e.slab[id].pos = int32(i)
	e.siftUp(i)
}

func (e *Env) heapPop() entryRef {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	e.slab[top].pos = -1
	if n > 0 {
		e.slab[e.heap[0]].pos = 0
		if n > 1 {
			e.siftDown(0)
		}
	}
	return top
}

// heapRemoveAt deletes the entry at heap index i, restoring heap order.
func (e *Env) heapRemoveAt(i int) {
	n := len(e.heap) - 1
	id := e.heap[i]
	e.slab[id].pos = -1
	if i != n {
		moved := e.heap[n]
		e.heap[i] = moved
		e.slab[moved].pos = int32(i)
		e.heap = e.heap[:n]
		e.siftDown(i)
		if int(e.slab[moved].pos) == i {
			e.siftUp(i)
		}
	} else {
		e.heap = e.heap[:n]
	}
}

func (e *Env) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		e.slab[h[i]].pos = int32(i)
		e.slab[h[parent]].pos = int32(parent)
		i = parent
	}
}

func (e *Env) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.entryLess(h[right], h[left]) {
			least = right
		}
		if !e.entryLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		e.slab[h[i]].pos = int32(i)
		e.slab[h[least]].pos = int32(least)
		i = least
	}
}

// popDue pops the next live entry due at the current instant — heap
// entries due now first (their seqs precede every FIFO entry, which was
// created during this instant), then the same-timestamp FIFO — dropping
// canceled entries and entries of finished processes. It returns 0 when
// the instant is fully drained.
func (e *Env) popDue() entryRef {
	for {
		var top entryRef
		switch {
		case len(e.heap) > 0 && e.slab[e.heap[0]].at <= e.now:
			top = e.heapPop()
		case e.todayHead < len(e.today):
			top = e.today[e.todayHead]
			e.todayHead++
		case e.todayHead > 0:
			// Instant fully drained: recycle the FIFO backing storage.
			e.today = e.today[:0]
			e.todayHead = 0
			continue
		default:
			return 0
		}
		if e.slab[top].canceled || (e.slab[top].proc != nil && e.slab[top].proc.done) {
			e.freeEntry(top)
			continue
		}
		return top
	}
}

// Run executes scheduled events until the queue drains or virtual time would
// pass horizon (horizon <= 0 means no limit). It returns the virtual time at
// which the simulation stopped.
func (e *Env) Run(horizon time.Duration) time.Duration {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running, e.horizon = true, horizon
	defer func() { e.running = false }()
	for {
		top := e.popDue()
		if top == 0 {
			// Advance time to the next live entry — canceled timers and
			// finished procs are dropped first so they never move the clock.
			if len(e.heap) == 0 {
				return e.now
			}
			next := e.heap[0]
			if e.slab[next].canceled || (e.slab[next].proc != nil && e.slab[next].proc.done) {
				e.heapPop()
				e.freeEntry(next)
				continue
			}
			if horizon > 0 && e.slab[next].at > horizon {
				e.advanceTo(horizon)
				return e.now
			}
			e.advanceTo(e.slab[next].at)
			continue
		}
		e.execOne(top)
	}
}

// execOne runs a single step: take it, and either run the inline function or
// run the process until it blocks or finishes (its panic is Run's).
func (e *Env) execOne(top entryRef) {
	ent := e.take(top)
	if ent.fn != nil {
		e.stats.inlineSteps++
		ent.fn()
		return
	}
	e.stats.handoffs++
	ent.proc.next()
}

// take copies out the step about to execute, recycles its slot and traces it.
func (e *Env) take(id entryRef) scheduled {
	ent := e.slab[id]
	e.freeEntry(id)
	if e.traceOn {
		e.trace = append(e.trace, TraceEntry{At: ent.at, Seq: ent.seq})
	}
	return ent
}

// resumeInPlace executes wake, the blocking process's own entry (0 = none),
// where the process stands when it is the step Run would execute next: the
// same FIFO reset, clock advance (observers first), pop and take that Run and
// execOne would make, and no switch to the scheduler and back. It reports
// false, and changes nothing, when anything else comes first: a heap entry
// due now, another FIFO head (a lazily canceled one too), an entry that
// precedes wake or ties its at with an older seq, or Run's horizon.
func (e *Env) resumeInPlace(wake entryRef) bool {
	switch {
	case wake == 0, len(e.heap) > 0 && e.slab[e.heap[0]].at <= e.now:
		return false
	case e.todayHead < len(e.today):
		if e.today[e.todayHead] != wake {
			return false
		}
		e.todayHead++
	default:
		at := e.slab[wake].at
		if e.heap[0] != wake || e.horizon > 0 && at > e.horizon {
			return false
		}
		e.today, e.todayHead = e.today[:0], 0
		e.advanceTo(at)
		e.heapPop()
	}
	e.take(wake)
	e.stats.inPlace++
	return true
}

// queued returns the number of pending entries across the heap and the
// same-instant FIFO.
func (e *Env) queued() int { return len(e.heap) + len(e.today) - e.todayHead }

// Pending returns the number of live queue entries (canceled FIFO entries
// not yet dropped still count). The timer-leak regression test watches it.
func (e *Env) Pending() int { return e.queued() }

// Idle reports whether no events are pending. Processes blocked on
// untriggered events do not count as pending work.
func (e *Env) Idle() bool { return e.queued() == 0 }

// Blocked returns the number of live processes waiting on events that have
// not triggered. A nonzero value after Run returns usually indicates a
// modelling bug (a deadlocked process), unless those processes are servers
// intentionally parked on demand queues.
func (e *Env) Blocked() int { return int(e.blocked) }

// Procs returns the number of live processes.
func (e *Env) Procs() int { return int(e.procs) }

func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v queued=%d procs=%d blocked=%d}", e.now, e.queued(), e.Procs(), e.Blocked())
}
