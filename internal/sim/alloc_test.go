package sim

import (
	"testing"
	"time"
)

// The kernel's blocking primitives must not allocate in steady state: the
// fleet runs millions of waits per iteration, and at that rate an allocation
// per wait is what made the collector the largest consumer of wall time.
// Each scenario parks its processes in an endless loop on one primitive;
// after a warm-up (queues and slabs grown to their working size) a run of
// stepsPerRun virtual nanoseconds of it must allocate nothing.

const stepsPerRun = 200

// steadyState runs the environment in slices of virtual time and returns the
// allocations per slice once warm.
func steadyState(env *Env) float64 {
	slice := func() { env.Run(env.Now() + stepsPerRun*time.Nanosecond) }
	slice()
	return testing.AllocsPerRun(20, slice)
}

func expectNoAllocs(t *testing.T, env *Env) {
	t.Helper()
	if n := steadyState(env); n != 0 {
		t.Fatalf("steady state allocates %v times per %d steps", n, stepsPerRun)
	}
}

func sleepLoop(env *Env) {
	env.Process("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
}

// staggeredSleepers has two processes sleep 2 ns each, one nanosecond
// apart: whenever one blocks the other is due first, so every resume is a
// switch.
func staggeredSleepers(env *Env) {
	for i := range 2 {
		env.ProcessAt("sleeper", time.Duration(i), func(p *Proc) {
			for {
				p.Sleep(2 * time.Nanosecond)
			}
		})
	}
}

// waitTriggerLoop has one process wait on an event a second one fires every
// nanosecond; the waiter re-arms the event it owns with Renew.
func waitTriggerLoop(env *Env) {
	ev := env.NewEvent()
	env.Process("waiter", func(p *Proc) {
		for {
			p.Wait(ev)
			ev = ev.Renew()
		}
	})
	env.Process("trigger", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
			ev.Trigger()
		}
	})
}

// contendedResource has three processes queue on a capacity-1 resource.
func contendedResource(env *Env) {
	r := env.NewResource(1)
	for i := 0; i < 3; i++ {
		env.Process("user", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(time.Nanosecond)
				r.Release()
			}
		})
	}
}

// chanPutGet has a producer feed a consumer that is blocked in Get each time.
// Items are values held in the ring, so neither Put nor Get allocates.
func chanPutGet(env *Env) {
	c := NewChan[int](env)
	env.Process("consumer", func(p *Proc) {
		for {
			c.Get(p)
		}
	})
	env.Process("producer", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
			c.Put(1)
		}
	})
}

// waitAnyLoop is the controller pump's shape: select between work arriving
// on a channel and a stop event that never fires.
func waitAnyLoop(env *Env) {
	c := NewChan[int](env)
	stop := env.NewEvent()
	env.Process("pump", func(p *Proc) {
		for {
			for c.Len() == 0 {
				if p.WaitAny(c.Avail(), stop) == 1 {
					return
				}
			}
			c.Get(p)
		}
	})
	env.Process("producer", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
			c.Put(1)
		}
	})
}

func TestBlockingIsAllocationFreeInSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Env)
	}{
		{"Sleep", sleepLoop},
		{"staggered Sleep", staggeredSleepers},
		{"Wait+Trigger", waitTriggerLoop},
		{"contended Acquire/Release", contendedResource},
		{"Chan Put/Get", chanPutGet},
		{"two-event WaitAny", waitAnyLoop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			tc.setup(env)
			expectNoAllocs(t, env)
		})
	}
}

// A WaitAny wider than the inline pair spills into a per-process slice that
// is reused, so it too stops allocating once warm — and still deregisters
// the losing events.
func TestWideWaitAnyReusesItsSpill(t *testing.T) {
	env := NewEnv(1)
	evs := []*Event{env.NewEvent(), env.NewEvent(), env.NewEvent(), env.NewEvent()}
	woke := 0
	env.Process("waiter", func(p *Proc) {
		for {
			i := p.WaitAny(evs...)
			woke++
			evs[i] = evs[i].Renew()
		}
	})
	env.Process("trigger", func(p *Proc) {
		for n := 0; ; n++ {
			p.Sleep(time.Nanosecond)
			evs[n%len(evs)].Trigger()
		}
	})
	expectNoAllocs(t, env)
	if woke < stepsPerRun {
		t.Fatalf("waiter woke %d times", woke)
	}
	// The waiter is parked again, registered exactly once on each event: a
	// losing event that kept a stale registration would show it in rest.
	for i, ev := range evs {
		if ev.first == nil || len(ev.rest) != 0 {
			t.Fatalf("event %d: first=%v rest=%d, want the one waiter", i, ev.first != nil, len(ev.rest))
		}
	}
}

// Renew must not reset an event under a process its trigger woke but that
// has not resumed yet: that process decides what happened by reading
// Triggered.
func TestRenewKeepsAFiringSomeoneStillHasToObserve(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	stop := env.NewEvent()
	var got int
	env.Process("waiter", func(p *Proc) { got = p.WaitAny(stop, ev) })
	var renewed *Event
	env.Process("owner", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		ev.Trigger()         // waiter scheduled, not yet resumed
		renewed = ev.Renew() // must not untrigger ev under it
	})
	env.Run(0)
	if got != 1 {
		t.Fatalf("WaitAny returned %d, want 1", got)
	}
	if renewed == ev || renewed.Triggered() {
		t.Fatal("Renew reset an event with an unobserved firing")
	}
	again := ev.Renew()
	if again != ev || again.Triggered() {
		t.Fatal("Renew did not reuse the event once its waiter had resumed")
	}
}

// An event that has not fired has no pending wakes, so Renew hands it back
// as it is, allocating nothing: an owner re-arms with ev = ev.Renew() and
// needs no check of its own first.
func TestRenewOfAnUnfiredEventIsItself(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	got := ev.Renew()
	if got != ev || got.Triggered() {
		t.Fatal("Renew of an unfired event did not return it unfired")
	}
	if n := testing.AllocsPerRun(100, func() { ev = ev.Renew() }); n != 0 {
		t.Fatalf("Renew of an unfired event allocates %v times", n)
	}
}

// spawnOne starts a process and runs it to completion: the whole per-process
// cost (Proc, coroutine, first resume, Done trigger) and nothing else.
func spawnOne(env *Env) {
	env.Process("p", func(*Proc) {})
	env.Run(0)
}

// perProcessAllocs is what spawnOne allocates: the Proc, the closure around
// the process function, and the eleven objects iter.Pull sets up around a
// coroutine. Blocking stays free, so this is the kernel's whole allocation
// budget per process; a change that lowers it ratchets the pin.
const perProcessAllocs = 13

func TestProcessStartAllocationBudget(t *testing.T) {
	env := NewEnv(1)
	spawnOne(env) // grow the slab
	if n := testing.AllocsPerRun(100, func() { spawnOne(env) }); n != perProcessAllocs {
		t.Fatalf("Process + run to completion allocates %v times, pinned at %d", n, perProcessAllocs)
	}
}

func benchSteady(b *testing.B, setup func(*Env)) {
	env := NewEnv(1)
	setup(env)
	env.Run(stepsPerRun * time.Nanosecond) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + time.Duration(b.N)*time.Nanosecond)
}

// BenchmarkResourceContended: one op is one virtual nanosecond of three
// processes contending for a capacity-1 resource (one Release handing the
// unit to a queued Acquire).
func BenchmarkResourceContended(b *testing.B) { benchSteady(b, contendedResource) }

// BenchmarkChanPutGet: one op is one Put waking a consumer blocked in Get.
func BenchmarkChanPutGet(b *testing.B) { benchSteady(b, chanPutGet) }

// BenchmarkHandoff: one op is one handoff — of two staggered sleepers, the
// one due resumed from its Sleep through a switch and run until it blocks in
// the next one (one heap push and pop around it).
func BenchmarkHandoff(b *testing.B) { benchSteady(b, staggeredSleepers) }

// BenchmarkSleepInPlace: one op is one resume in place — a lone sleeper whose
// own wake-up is always the next step, so each Sleep is a heap push and pop
// with no switch. BenchmarkHandoff is the same step through a switch.
func BenchmarkSleepInPlace(b *testing.B) { benchSteady(b, sleepLoop) }

// BenchmarkHandoffPingPong: one op is two handoffs between two processes
// over an Event — the trigger resumed from its Sleep through the heap, the
// waiter it wakes resumed through the same-instant FIFO.
func BenchmarkHandoffPingPong(b *testing.B) { benchSteady(b, waitTriggerLoop) }

// BenchmarkInlineStep: one op is one inline step — a function the scheduler
// runs itself, re-arming one virtual nanosecond ahead — the no-handoff tier
// BenchmarkHandoff is to be read against.
func BenchmarkInlineStep(b *testing.B) {
	env := NewEnv(1)
	var tick func()
	tick = func() { env.After(time.Nanosecond, tick) }
	tick()
	env.Run(stepsPerRun * time.Nanosecond) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + time.Duration(b.N)*time.Nanosecond)
}

// BenchmarkSpawn: one op is one process started and run to completion.
func BenchmarkSpawn(b *testing.B) {
	env := NewEnv(1)
	spawnOne(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnOne(env)
	}
}
