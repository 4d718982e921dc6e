// Package sim provides a deterministic discrete-event simulation kernel.
//
// All components of the backup system (storage arrays, network links,
// databases, workloads) execute as simulated processes on a shared virtual
// clock. Processes are iter.Pull coroutines that cooperate with the
// scheduler: in the sequential scheduler exactly one process runs at a time,
// and time advances only when every process is blocked in Sleep or Wait.
// Given a fixed RNG seed, runs are fully reproducible, which is what lets the
// experiment harness regenerate the paper's figures deterministically.
//
// The kernel has a two-tier step model. Ordinary steps resume a process
// coroutine (a "handoff": the runtime switches to it and back directly, with
// no channel and no scheduler wake-up); inline steps (Env.Immediate,
// Env.After, Proc.Do) run a plain function on the scheduler goroutine with
// no handoff at all, which is what makes zero-duration bookkeeping work
// (apply a replicated record, requeue a controller key) nearly free.
// RunParallel additionally executes runs of same-instant steps whose
// processes belong to pairwise-distinct domains concurrently on up to
// `workers` goroutines, committing their kernel effects in step order
// afterwards so the (at, seq) total order — and therefore every simulation
// outcome — is byte-identical to the sequential scheduler's.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	blocked   atomic.Int64 // processes waiting on an untriggered Event
	procs     atomic.Int64 // live (started, unfinished) processes

	// Parallel-round state (RunParallel). inRound is true while a round's
	// processes execute concurrently; allocMu serializes their slab
	// allocations; held parks the entry that ended round collection; roundNext
	// counts the roundProcs taken so far by the round's roundWG workers.
	inRound    bool
	allocMu    sync.Mutex
	held       entryRef
	round      []entryRef
	roundProcs []*Proc
	roundNext  atomic.Int64
	roundWG    sync.WaitGroup
	roundPanic atomic.Pointer[any]
	segs       []stepSeg
	domSeen    map[int]int64
	domEpoch   int64

	stats   statCounters
	traceOn bool
	trace   []TraceEntry

	// advance holds the registered OnAdvance observers, called in
	// registration order whenever virtual time moves forward.
	advance []func(from, to time.Duration)
}

// statCounters is the internal, partly-atomic form of Stats. Fields mutated
// only by the scheduler goroutine (or by the one process it has switched
// to) are plain; InlineSteps is atomic because Proc.Do runs in processes
// that execute concurrently during rounds.
type statCounters struct {
	heapPushes     int64
	fifoBypasses   int64
	handoffs       int64
	inlineSteps    atomic.Int64
	timerCancels   int64
	parallelRounds int64
	parallelSteps  int64
}

// Stats is a snapshot of the kernel's scheduling counters — the measured
// form of the execution-model claims (how many steps the heap actually
// ordered, how many bypassed it, how many avoided a process handoff
// entirely, how much ran in parallel rounds).
type Stats struct {
	HeapPushes     int64 // entries ordered through the binary heap
	FifoBypasses   int64 // same-instant entries that skipped the heap
	Handoffs       int64 // process resumes (coroutine switch in, switch back out)
	InlineSteps    int64 // zero-duration steps run with no handoff
	TimerCancels   int64 // timer entries removed from the heap eagerly
	ParallelRounds int64 // rounds of same-instant steps run concurrently
	ParallelSteps  int64 // steps executed inside those rounds
}

// Stats returns a snapshot of the kernel counters.
func (e *Env) Stats() Stats {
	return Stats{
		HeapPushes:     e.stats.heapPushes,
		FifoBypasses:   e.stats.fifoBypasses,
		Handoffs:       e.stats.handoffs,
		InlineSteps:    e.stats.inlineSteps.Load(),
		TimerCancels:   e.stats.timerCancels,
		ParallelRounds: e.stats.parallelRounds,
		ParallelSteps:  e.stats.parallelSteps,
	}
}

// TraceEntry is one executed step in the kernel's total order.
type TraceEntry struct {
	At  time.Duration
	Seq int64
}

// StartTrace begins recording the (at, seq) pair of every executed step.
// The golden-trace determinism test uses it to prove the parallel scheduler
// replays the sequential order exactly.
func (e *Env) StartTrace() {
	e.trace = e.trace[:0]
	e.traceOn = true
}

// Trace returns the steps recorded since StartTrace.
func (e *Env) Trace() []TraceEntry { return e.trace }

// OnAdvance registers fn to be called every time virtual time advances: just
// before the clock moves from `from` to `to` (to > from), including the final
// cut to the horizon. Observers run on the scheduler goroutine between
// instants — every process is parked, no step is executing, and (under
// RunParallel) no round is in flight — so they may freely READ simulation
// state. They must not schedule events, start processes, trigger events, or
// touch the RNG: an observer consumes no seqs and adds no steps, which is
// what lets the telemetry plane sample on the virtual clock without
// perturbing the (at, seq) total order.
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
		rng:     rand.New(rand.NewSource(seed)),
		slab:    make([]scheduled, 1), // slab[0] reserved so ref 0 means "none"
		domSeen: make(map[int]int64),
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
// without a scan. seq 0 marks a round-buffered entry whose position in the
// total order is assigned at round commit.
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
// for its full original duration. FIFO-resident (or round-buffered)
// entries are marked and dropped when they surface.
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

func (e *Env) scheduleEntry(p *Proc, at time.Duration) entryRef {
	e.seq++
	id := e.allocEntry()
	e.slab[id] = scheduled{at: at, seq: e.seq, proc: p, pos: -1}
	// Same-instant fast path: while the loop is draining the current
	// instant, a resume due "now" skips both heap sifts — FIFO order is seq
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

// scheduleFn queues fn to run inline on the scheduler goroutine at time at:
// a step in the (at, seq) order with no process and no handoff.
func (e *Env) scheduleFn(at time.Duration, fn func()) {
	if e.inRound {
		panic("sim: Immediate/After called during a parallel round")
	}
	e.seq++
	id := e.allocEntry()
	e.slab[id] = scheduled{at: at, seq: e.seq, fn: fn, pos: -1}
	if e.running && at == e.now {
		e.today = append(e.today, id)
		e.stats.fifoBypasses++
	} else {
		e.heapPush(id)
		e.stats.heapPushes++
	}
}

// Immediate queues fn as an inline step at the current instant, ordered
// after everything already scheduled. It is the no-handoff replacement for
// spawning a throwaway process to run zero-duration work.
func (e *Env) Immediate(fn func()) { e.scheduleFn(e.now, fn) }

// After queues fn as an inline step d from now (d < 0 is treated as zero).
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.scheduleFn(e.now+d, fn)
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

// takeDue returns the next due entry, preferring the one a round collection
// parked (it was popped before the round flushed and is next in seq order —
// everything the round scheduled carries a later seq).
func (e *Env) takeDue() entryRef {
	if e.held != 0 {
		top := e.held
		e.held = 0
		return top
	}
	return e.popDue()
}

// Run executes scheduled events until the queue drains or virtual time would
// pass horizon (horizon <= 0 means no limit). It returns the virtual time at
// which the simulation stopped.
func (e *Env) Run(horizon time.Duration) time.Duration { return e.run(horizon, 1) }

// RunParallel is Run with same-instant steps of pairwise-distinct process
// domains (see Proc.SetDomain) executed concurrently on up to workers
// goroutines. Kernel effects of concurrent steps are buffered and committed
// in step order, so the resulting (at, seq) total order — and every
// simulation outcome — is identical to Run's. workers < 2 degenerates to
// the sequential scheduler.
func (e *Env) RunParallel(horizon time.Duration, workers int) time.Duration {
	return e.run(horizon, workers)
}

func (e *Env) run(horizon time.Duration, workers int) time.Duration {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		top := e.takeDue()
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
		if workers > 1 {
			if d := e.entryDomain(top); d != 0 {
				e.collectRound(top, d)
				if len(e.round) > 1 {
					e.execRound(workers)
					continue
				}
				top = e.round[0]
			}
		}
		e.execOne(top)
	}
}

// entryDomain returns the parallel domain of an entry's step: the process's
// domain, or 0 (never concurrent) for inline-function steps.
func (e *Env) entryDomain(id entryRef) int {
	if p := e.slab[id].proc; p != nil {
		return p.domain
	}
	return 0
}

// execOne runs a single step sequentially: copy out, recycle the slot, and
// either run the inline function or hand off to the process coroutine.
func (e *Env) execOne(top entryRef) {
	ent := e.slab[top]
	e.freeEntry(top)
	if e.traceOn {
		e.trace = append(e.trace, TraceEntry{At: ent.at, Seq: ent.seq})
	}
	if ent.fn != nil {
		e.stats.inlineSteps.Add(1)
		ent.fn()
		return
	}
	e.step(ent.proc)
}

// collectRound gathers the maximal run of due entries, starting at top,
// whose processes have pairwise-distinct non-zero domains. Collection stops
// at (and parks in e.held) the first entry that must observe the round's
// effects sequentially: an inline step, a domain-0 process, or a second
// step of a domain already in the round. Pre-popping is sound because every
// entry a round step schedules carries a later seq than every entry that
// was already due — the collected run is exactly the next len(round)
// sequential steps.
func (e *Env) collectRound(top entryRef, domain int) {
	e.domEpoch++
	e.round = e.round[:0]
	e.round = append(e.round, top)
	e.domSeen[domain] = e.domEpoch
	for {
		next := e.popDue()
		if next == 0 {
			return
		}
		d := e.entryDomain(next)
		if d == 0 || e.domSeen[d] == e.domEpoch {
			e.held = next
			return
		}
		e.domSeen[d] = e.domEpoch
		e.round = append(e.round, next)
	}
}

// execRound runs the collected round: up to workers goroutines — this one
// and short-lived helpers — resume its processes, then each step's buffered
// kernel effects are committed in step (= seq) order, which reproduces
// exactly the seq assignments the sequential scheduler would have made.
func (e *Env) execRound(workers int) {
	k := len(e.round)
	if cap(e.roundProcs) < k {
		e.roundProcs = make([]*Proc, 0, k*2)
		e.segs = make([]stepSeg, k*2)
	}
	e.roundProcs = e.roundProcs[:0]
	for i, ref := range e.round {
		ent := e.slab[ref]
		if e.traceOn {
			e.trace = append(e.trace, TraceEntry{At: ent.at, Seq: ent.seq})
		}
		e.segs[i].effs = e.segs[i].effs[:0]
		ent.proc.seg = &e.segs[i]
		e.roundProcs = append(e.roundProcs, ent.proc)
		e.freeEntry(ref)
	}
	e.inRound = true
	e.roundNext.Store(0)
	n := min(workers, k)
	e.roundWG.Add(n)
	for i := 1; i < n; i++ {
		go e.resumeRound()
	}
	e.resumeRound()
	e.roundWG.Wait()
	e.inRound = false
	if r := e.roundPanic.Swap(nil); r != nil {
		panic(*r)
	}
	for i, p := range e.roundProcs {
		p.seg = nil
		e.commitSeg(&e.segs[i])
	}
	e.stats.handoffs += int64(k)
	e.stats.parallelRounds++
	e.stats.parallelSteps += int64(k)
}

// resumeRound is one round worker: it resumes whichever of the round's
// processes no worker has taken yet (a coroutine may be resumed from any
// goroutine, never two at once). A process's panic is kept for execRound to
// re-raise where a sequential step's surfaces.
func (e *Env) resumeRound() {
	defer func() {
		if r := recover(); r != nil {
			e.roundPanic.CompareAndSwap(nil, &r)
		}
		e.roundWG.Done()
	}()
	for i := e.roundNext.Add(1); int(i) <= len(e.roundProcs); i = e.roundNext.Add(1) {
		e.roundProcs[i-1].next()
	}
}

// step runs one process until it blocks or finishes; its panic is Run's.
func (e *Env) step(p *Proc) {
	e.stats.handoffs++
	p.next()
}

// effect is one deferred kernel mutation recorded by a round step. A
// schedule effect's entry already sits in the slab (allocated eagerly so
// its ref is usable for timer registration); commit assigns its seq and
// queues it. A cancel effect targets an entry committed earlier.
type effect struct {
	ref      entryRef
	isCancel bool
}

// stepSeg buffers one round step's kernel effects in program order.
type stepSeg struct {
	effs []effect
}

// scheduleVia schedules target to resume at time at on behalf of p: directly
// when p runs sequentially, buffered into p's segment during a round.
func (e *Env) scheduleVia(p *Proc, target *Proc, at time.Duration) entryRef {
	if p == nil || p.seg == nil {
		return e.scheduleEntry(target, at)
	}
	e.allocMu.Lock()
	id := e.allocEntry()
	e.slab[id] = scheduled{at: at, proc: target, pos: -1}
	e.allocMu.Unlock()
	p.seg.effs = append(p.seg.effs, effect{ref: id})
	return id
}

// cancelVia cancels a pending entry on behalf of p (see scheduleVia).
func (e *Env) cancelVia(p *Proc, ref entryRef) {
	if p == nil || p.seg == nil {
		e.cancelEntry(ref)
		return
	}
	p.seg.effs = append(p.seg.effs, effect{ref: ref, isCancel: true})
}

// commitSeg replays one round step's effects: schedules take the next seqs
// (exactly the values the sequential scheduler would have assigned, since
// segment order is step order and effects are in program order) and enter
// the FIFO or heap under the usual same-instant rule; cancels resolve
// against entries committed by earlier segments.
func (e *Env) commitSeg(seg *stepSeg) {
	for _, eff := range seg.effs {
		ent := &e.slab[eff.ref]
		if eff.isCancel {
			if ent.seq == 0 {
				ent.canceled = true // uncommitted: dropped by its own commit
				continue
			}
			e.cancelEntry(eff.ref)
			continue
		}
		e.seq++
		ent.seq = e.seq
		if ent.canceled {
			// Canceled within the round: the seq is consumed (as it would be
			// sequentially) but the entry never queues.
			e.freeEntry(eff.ref)
			continue
		}
		if ent.at == e.now {
			e.today = append(e.today, eff.ref)
			e.stats.fifoBypasses++
		} else {
			e.heapPush(eff.ref)
			e.stats.heapPushes++
		}
	}
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
func (e *Env) Blocked() int { return int(e.blocked.Load()) }

// Procs returns the number of live processes.
func (e *Env) Procs() int { return int(e.procs.Load()) }

func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v queued=%d procs=%d blocked=%d}", e.now, e.queued(), e.Procs(), e.Blocked())
}
