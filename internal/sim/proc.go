package sim

import (
	"iter"
	"time"
)

// Proc is a simulated process: an iter.Pull coroutine that advances only
// when the scheduler resumes it. Inside the process function, call Sleep and
// Wait to let virtual time pass; both must be called from the process
// function itself, never from another goroutine.
type Proc struct {
	env  *Env
	name string
	// next runs the coroutine to its next block (or its end); yield, set on
	// its first run, switches back to whoever called next — any goroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// domain is the process's parallel-execution domain. Steps of processes
	// in pairwise-distinct non-zero domains that fall due at the same
	// instant may run concurrently under RunParallel; domain 0 (the
	// default) never runs concurrently with anything.
	domain int
	// seg is non-nil exactly while the process executes inside a parallel
	// round: kernel effects are buffered here and committed in step order.
	seg *stepSeg

	// Wait registration. A process blocks in one wait at a time, so what a
	// trigger needs to know about a waiter lives here and not in a
	// per-registration record: timer is the pending WaitTimeout entry (0 =
	// none; the ref is only valid while the entry is pending, which holds
	// because the process stays blocked until either the timer pops or the
	// trigger cancels it); group lists the events of the WaitAny in progress
	// (the two-event form every caller uses fits inline, wider ones spill to
	// groupMore) so the first trigger can deregister the rest; wokenBy is
	// the event whose trigger scheduled the pending resume.
	timer     entryRef
	group     [2]*Event
	groupMore []*Event
	wokenBy   *Event

	// Done triggers when the process function returns; other processes can
	// Wait on it to join.
	Done   *Event
	doneEv Event
}

func (e *Env) startProc(p *Proc, at time.Duration, fn func(p *Proc)) {
	if e.inRound {
		// The initial schedule cannot be attributed to the spawning step, so
		// spawning inside a round would mutate the queue concurrently.
		panic("sim: Process/ProcessAt called during a parallel round")
	}
	e.procs.Add(1)
	// stop is never called: a process ends by returning, and a simulation
	// abandoned with processes still blocked leaves those parked.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
		e.procs.Add(-1)
		p.Trigger(p.Done)
	})
	e.scheduleEntry(p, max(at, e.now))
}

// Process starts fn as a new simulated process scheduled to begin at the
// current virtual time. The name is used in diagnostics only.
func (e *Env) Process(name string, fn func(p *Proc)) *Proc { return e.ProcessAt(name, e.now, fn) }

// ProcessAt is Process but with the first resumption delayed until time at.
func (e *Env) ProcessAt(name string, at time.Duration, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, doneEv: Event{env: e}}
	p.Done = &p.doneEv
	e.startProc(p, at, fn)
	return p
}

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// SetDomain assigns the process to a parallel-execution domain. Two steps
// due at the same instant run concurrently under RunParallel only if their
// processes carry distinct non-zero domains — a domain is a promise that
// the process, while in it, touches no simulation state shared with any
// other domain except through attributed kernel operations (Sleep, Wait,
// Proc.Trigger) and data-race-free application state. Domain 0 revokes the
// promise; steps of domain-0 processes always run alone.
//
// The domain is read when a step is collected, so a change takes effect
// from the process's NEXT step. A process leaving a domain (SetDomain(0))
// must pass a step boundary — p.Sleep(0) — before touching shared state:
// the step it is currently in was collected under the old domain and may be
// running inside a round.
func (p *Proc) SetDomain(d int) { p.domain = d }

// Domain returns the process's parallel-execution domain.
func (p *Proc) Domain() int { return p.domain }

// Do runs fn inline as zero-duration work attributed to the process. It
// exists so call sites can make "this is deliberately instantaneous — no
// scheduler round trip" explicit, and so the kernel can count how much
// work the batch-grained code paths perform without a handoff.
func (p *Proc) Do(fn func()) {
	p.env.stats.inlineSteps.Add(1)
	fn()
}

// Trigger fires ev on behalf of the process. Outside a parallel round it is
// exactly Event.Trigger; inside one it attributes the waiter resumes (and
// timer cancels) to the process's effect segment, which is what keeps the
// merged (at, seq) order identical to the sequential scheduler's. Any code
// that can trigger an event with waiters from inside a domain's step must
// use this instead of Event.Trigger.
func (p *Proc) Trigger(ev *Event) {
	if p.seg == nil {
		ev.Trigger()
		return
	}
	if !ev.triggered {
		ev.fire(p)
	}
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleVia(p, p, p.env.now+d)
	p.block()
}

// block switches back to the scheduler and returns when it resumes p.
func (p *Proc) block() { p.yield(struct{}{}) }

// park blocks the process on the events it has registered with (or on a
// Resource queue) until a trigger, a handoff or its timer resumes it.
func (p *Proc) park() {
	p.env.blocked.Add(1)
	p.block()
	p.env.blocked.Add(-1)
	if ev := p.wokenBy; ev != nil {
		ev.wakes--
		p.wokenBy = nil
	}
}

// leaveGroup ends the WaitAny in progress (a no-op when there is none): p is
// deregistered from every event of the group except from, the one whose
// trigger is resuming it and which drops its whole waiter list itself.
func (p *Proc) leaveGroup(from *Event) {
	for i, ev := range p.group {
		if ev != nil && ev != from {
			ev.remove(p)
		}
		p.group[i] = nil
	}
	for i, ev := range p.groupMore {
		if ev != from {
			ev.remove(p)
		}
		p.groupMore[i] = nil
	}
	p.groupMore = p.groupMore[:0]
}

// Wait suspends the process until ev triggers. If ev has already triggered,
// Wait returns immediately without advancing time.
func (p *Proc) Wait(ev *Event) {
	if ev.triggered {
		return
	}
	ev.add(p)
	p.park()
}

// WaitAny suspends the process until any of the given events triggers and
// returns the index of a triggered event (the lowest-indexed one when
// several fire at once). Events already triggered return immediately.
func (p *Proc) WaitAny(evs ...*Event) int {
	for i, ev := range evs {
		if ev.triggered {
			return i
		}
	}
	// evs is copied, not kept: the caller's variadic slice stays on its
	// stack.
	p.groupMore = append(p.groupMore, evs[min(len(evs), len(p.group)):]...)
	copy(p.group[:], evs)
	for _, ev := range evs {
		ev.add(p)
	}
	p.park()
	for i, ev := range evs {
		if ev.triggered {
			return i
		}
	}
	panic("sim: WaitAny resumed with no triggered event")
}

// WaitTimeout waits for ev or until d elapses, whichever comes first. It
// reports whether the event triggered (true) or the timeout fired (false).
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		return true
	}
	p.timer = p.env.scheduleVia(p, p, p.env.now+d)
	ev.add(p)
	p.park()
	// Exactly one of the two sources resumed us: a trigger (which canceled
	// the timer while it was still pending) or the timer pop (which can only
	// happen while the event is untriggered — a later trigger cannot run
	// before this check because no other process runs in between). So the
	// event state alone identifies the winner; the timer entry has been
	// recycled if it popped and must not be read here.
	if ev.triggered {
		return true
	}
	p.timer = 0
	ev.remove(p)
	return false
}
