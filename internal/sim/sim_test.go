package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv(1)
	var at time.Duration
	env.Process("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		at = p.Now()
	})
	end := env.Run(0)
	if at != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", at)
	}
	if end != 42*time.Millisecond {
		t.Fatalf("run ended at %v, want 42ms", end)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Process("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, "a10")
		p.Sleep(20 * time.Millisecond)
		order = append(order, "a30")
	})
	env.Process("b", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		order = append(order, "b20")
	})
	env.Run(0)
	want := []string{"a10", "b20", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Process("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	env.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	woke := 0
	for i := 0; i < 3; i++ {
		env.Process("waiter", func(p *Proc) {
			p.Wait(ev)
			woke++
		})
	}
	env.Process("trigger", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Trigger()
	})
	env.Run(0)
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
	if env.Blocked() != 0 {
		t.Fatalf("blocked = %d, want 0", env.Blocked())
	}
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	ev.Trigger()
	var at time.Duration = -1
	env.Process("w", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	env.Run(0)
	if at != 0 {
		t.Fatalf("waited until %v, want 0", at)
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var ok bool
	var at time.Duration
	env.Process("w", func(p *Proc) {
		ok = p.WaitTimeout(ev, 7*time.Millisecond)
		at = p.Now()
	})
	env.Run(0)
	if ok {
		t.Fatal("WaitTimeout reported event, want timeout")
	}
	if at != 7*time.Millisecond {
		t.Fatalf("timed out at %v, want 7ms", at)
	}
}

func TestWaitTimeoutEventWins(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var ok bool
	var at time.Duration
	env.Process("w", func(p *Proc) {
		ok = p.WaitTimeout(ev, 100*time.Millisecond)
		at = p.Now()
	})
	env.Process("t", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		ev.Trigger()
	})
	end := env.Run(0)
	if !ok {
		t.Fatal("WaitTimeout reported timeout, want event")
	}
	if at != 3*time.Millisecond {
		t.Fatalf("woke at %v, want 3ms", at)
	}
	// The canceled timer must not extend the run.
	if end != 3*time.Millisecond {
		t.Fatalf("run ended at %v, want 3ms", end)
	}
}

func TestLateTriggerAfterTimeoutDoesNotResume(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	resumed := 0
	env.Process("w", func(p *Proc) {
		p.WaitTimeout(ev, time.Millisecond)
		resumed++
	})
	env.Process("t", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		ev.Trigger()
	})
	env.Run(0)
	if resumed != 1 {
		t.Fatalf("process body ran %d times past the wait, want 1", resumed)
	}
}

func TestRunHorizonStopsEarly(t *testing.T) {
	env := NewEnv(1)
	ran := false
	env.Process("late", func(p *Proc) {
		p.Sleep(time.Second)
		ran = true
	})
	end := env.Run(100 * time.Millisecond)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if end != 100*time.Millisecond {
		t.Fatalf("end = %v, want horizon", end)
	}
	// Resuming the run completes the pending work.
	env.Run(0)
	if !ran {
		t.Fatal("event did not run after horizon lifted")
	}
}

func TestChanFIFO(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[int](env)
	var got []int
	env.Process("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Get(p))
		}
	})
	env.Process("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			ch.Put(i)
		}
	})
	env.Run(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got = %v, want [0 1 2]", got)
	}
}

func TestChanGetBeforePut(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[string](env)
	var v string
	env.Process("c", func(p *Proc) { v = ch.Get(p) })
	env.Process("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Put("x")
	})
	env.Run(0)
	if v != "x" {
		t.Fatalf("v = %v, want x", v)
	}
}

func TestChanGetTimeout(t *testing.T) {
	env := NewEnv(1)
	ch := NewChan[int](env)
	var ok bool
	env.Process("c", func(p *Proc) { _, ok = ch.GetTimeout(p, 5*time.Millisecond) })
	env.Run(0)
	if ok {
		t.Fatal("GetTimeout returned ok on empty channel")
	}
}

func TestResourceLimitsParallelism(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(2)
	maxInUse := 0
	for i := 0; i < 6; i++ {
		env.Process("u", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(10 * time.Millisecond)
			r.Release()
		})
	}
	end := env.Run(0)
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	// 6 jobs of 10ms over 2 servers = 30ms makespan.
	if end != 30*time.Millisecond {
		t.Fatalf("makespan = %v, want 30ms", end)
	}
	if r.InUse() != 0 {
		t.Fatalf("in use after run = %d, want 0", r.InUse())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		env.ProcessAt("u", time.Duration(i)*time.Microsecond, func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	env.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

// TryAcquire takes a unit only when one is free: it never blocks, never
// queues, and what it took is released like any other unit.
func TestResourceTryAcquireTakesFreeUnitsOnly(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(3)
	var served time.Duration
	env.Process("wide", func(p *Proc) {
		r.Acquire(p)
		if !r.TryAcquire() || !r.TryAcquire() || r.TryAcquire() {
			t.Errorf("want two more units then a refusal; %d of 3 in use", r.InUse())
		}
		p.Sleep(time.Millisecond)
		if r.QueueLen() != 1 || r.TryAcquire() {
			t.Errorf("with a waiter queued TryAcquire must refuse (queue %d, in use %d)", r.QueueLen(), r.InUse())
		}
		for i := 0; i < 3; i++ {
			r.Release()
		}
	})
	env.ProcessAt("waiter", time.Microsecond, func(p *Proc) {
		r.Acquire(p)
		served = p.Now()
		r.Release()
	})
	env.Run(0)
	if served != time.Millisecond || r.InUse() != 0 {
		t.Fatalf("waiter served at %v with %d in use after; want 1ms and 0", served, r.InUse())
	}
}

func TestProcDoneJoin(t *testing.T) {
	env := NewEnv(1)
	var joined time.Duration
	worker := env.Process("w", func(p *Proc) { p.Sleep(9 * time.Millisecond) })
	env.Process("j", func(p *Proc) {
		p.Wait(worker.Done)
		joined = p.Now()
	})
	env.Run(0)
	if joined != 9*time.Millisecond {
		t.Fatalf("joined at %v, want 9ms", joined)
	}
}

func TestDeterministicRand(t *testing.T) {
	runOnce := func() []int64 {
		env := NewEnv(99)
		var out []int64
		env.Process("r", func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, env.Rand().Int63n(1000))
				p.Sleep(time.Millisecond)
			}
		})
		env.Run(0)
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

func TestProcessAtDelaysStart(t *testing.T) {
	env := NewEnv(1)
	var started time.Duration = -1
	env.ProcessAt("late", 50*time.Millisecond, func(p *Proc) { started = p.Now() })
	env.Run(0)
	if started != 50*time.Millisecond {
		t.Fatalf("started at %v, want 50ms", started)
	}
}

// TestSameInstantFIFOOrdersAfterHeapDue pins the same-timestamp batching
// contract: entries already scheduled FOR an instant (via the heap) run
// before entries created AT that instant (the FIFO fast path), and FIFO
// entries run in creation order — the exact (at, seq) total order the heap
// alone would produce.
func TestSameInstantFIFOOrdersAfterHeapDue(t *testing.T) {
	env := NewEnv(1)
	var order []string
	ev := env.NewEvent()
	// Three waiters park on ev; the trigger resumes them through the FIFO.
	for i := 0; i < 3; i++ {
		i := i
		env.Process("w", func(p *Proc) {
			p.Wait(ev)
			order = append(order, fmt.Sprintf("w%d", i))
		})
	}
	// Two sleepers due at the trigger instant but scheduled earlier: they
	// carry smaller seqs, so they must run before every resumed waiter.
	env.Process("trigger", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger()
		order = append(order, "trigger")
	})
	env.Process("due", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "due")
	})
	env.Run(0)
	want := []string{"trigger", "due", "w0", "w1", "w2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSameInstantChainDrainsBeforeTimeAdvances checks that a chain of
// processes resuming each other at one instant all run before the clock
// moves, and that Idle accounts for FIFO entries.
func TestSameInstantChainDrainsBeforeTimeAdvances(t *testing.T) {
	env := NewEnv(1)
	const depth = 50
	evs := make([]*Event, depth+1)
	for i := range evs {
		evs[i] = env.NewEvent()
	}
	var ats []time.Duration
	for i := 0; i < depth; i++ {
		i := i
		env.Process("link", func(p *Proc) {
			p.Wait(evs[i])
			ats = append(ats, p.Now())
			evs[i+1].Trigger()
		})
	}
	var lastAt time.Duration
	env.Process("tail", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		lastAt = p.Now()
	})
	env.Process("head", func(p *Proc) {
		p.Sleep(time.Millisecond)
		evs[0].Trigger()
	})
	env.Run(0)
	if len(ats) != depth {
		t.Fatalf("chain ran %d links, want %d", len(ats), depth)
	}
	for _, at := range ats {
		if at != time.Millisecond {
			t.Fatalf("chain link ran at %v, want 1ms", at)
		}
	}
	if lastAt != 3*time.Millisecond {
		t.Fatalf("tail ran at %v, want 3ms", lastAt)
	}
	if !env.Idle() {
		t.Fatalf("env not idle after run: %v", env)
	}
}

// TestWaitTimeoutReclaimsTimerEntry is the regression test for the timer
// leak: when the event wins, the loser timer entry must leave the heap
// immediately instead of squatting there until its original deadline.
func TestWaitTimeoutReclaimsTimerEntry(t *testing.T) {
	env := NewEnv(1)
	const rounds = 1000
	high := 0
	env.Process("watcher", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ev := env.NewEvent()
			env.Process("firer", func(q *Proc) {
				q.Sleep(time.Microsecond)
				ev.Trigger()
			})
			// Far deadline: a leaked timer would stay pending ~forever.
			if !p.WaitTimeout(ev, time.Hour) {
				t.Errorf("round %d: timeout fired, want event", i)
			}
			if n := env.Pending(); n > high {
				high = n
			}
		}
	})
	env.Run(0)
	// Each round keeps at most a handful of entries live (the firer's
	// wakeup, the watcher's resume). 1000 leaked hour-long timers would
	// push this into the hundreds.
	if high > 8 {
		t.Fatalf("live entries peaked at %d, want <= 8 (timer entries leaking)", high)
	}
	if got := env.Stats().TimerCancels; got < rounds {
		t.Fatalf("TimerCancels = %d, want >= %d", got, rounds)
	}
	if n := env.Pending(); n != 0 {
		t.Fatalf("%d entries still pending after run", n)
	}
}

// TestWaitTimeoutStillTimesOut guards the other half of the contract after
// the eager-cancel change.
func TestWaitTimeoutStillTimesOut(t *testing.T) {
	env := NewEnv(1)
	var fired bool
	env.Process("waiter", func(p *Proc) {
		fired = p.WaitTimeout(env.NewEvent(), 5*time.Millisecond)
	})
	end := env.Run(0)
	if fired {
		t.Fatal("WaitTimeout reported the event, want timeout")
	}
	if end != 5*time.Millisecond {
		t.Fatalf("run ended at %v, want 5ms", end)
	}
}

func TestInlineStepsRunWithoutHandoff(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Process("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "proc@1ms")
	})
	env.After(time.Millisecond, func() { order = append(order, "fn@1ms") })
	env.After(0, func() {
		order = append(order, "fn@0")
		env.Immediate(func() { order = append(order, "fn@0b") })
	})
	base := env.Stats().Handoffs
	env.Run(0)
	// The 1ms fn was scheduled before the process's sleep resume, so its
	// seq — and therefore its turn — comes first.
	want := []string{"fn@0", "fn@0b", "fn@1ms", "proc@1ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	st := env.Stats()
	if st.InlineSteps != 3 {
		t.Fatalf("InlineSteps = %d, want 3", st.InlineSteps)
	}
	if st.Handoffs-base != 2 {
		t.Fatalf("Handoffs = %d, want 2 (one start, one sleep resume)", st.Handoffs-base)
	}
}

func TestProcDoCountsInlineWork(t *testing.T) {
	env := NewEnv(1)
	ran := 0
	env.Process("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Do(func() { ran++ })
		}
	})
	env.Run(0)
	if ran != 5 {
		t.Fatalf("ran = %d, want 5", ran)
	}
	if got := env.Stats().InlineSteps; got != 5 {
		t.Fatalf("InlineSteps = %d, want 5", got)
	}
}

// buildRandomWorld wires a randomized workload on env: nProcs processes
// doing random sleeps and timeouts drawn from the kernel's own random
// source, each waking a helper through an event, plus a collector they
// signal once all have finished; every process spawns a tail that falls due
// at one shared instant. Every observable (per-process logs, collector log)
// is returned for replay checking.
func buildRandomWorld(env *Env, nProcs, steps int) (logs [][]string, collected *[]string) {
	logs = make([][]string, nProcs)
	shared := 0
	collector := &[]string{}
	done := env.NewEvent()
	finished := 0
	rng := env.Rand()
	for d := 0; d < nProcs; d++ {
		env.Process(fmt.Sprintf("proc%d", d), func(p *Proc) {
			local := env.NewEvent()
			env.Process(fmt.Sprintf("helper%d", d), func(q *Proc) {
				q.Wait(local)
				logs[d] = append(logs[d], fmt.Sprintf("helper@%v", q.Now()))
			})
			for i := 0; i < steps; i++ {
				p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				logs[d] = append(logs[d], fmt.Sprintf("s%d@%v", i, p.Now()))
				if i == steps/2 {
					local.Trigger()
				}
				if rng.Intn(3) == 0 {
					ev := env.NewEvent()
					if p.WaitTimeout(ev, time.Duration(rng.Intn(3))*time.Millisecond) {
						logs[d] = append(logs[d], "impossible")
					}
				}
				shared++
			}
			*collector = append(*collector, fmt.Sprintf("d%d@%v", d, p.Now()))
			tailDone := env.NewEvent()
			env.Process(fmt.Sprintf("tail%d", d), func(q *Proc) {
				q.Sleep(time.Second - q.Now()) // every random walk ends well before 1s
				logs[d] = append(logs[d], fmt.Sprintf("tail@%v", q.Now()))
				tailDone.Trigger()
			})
			p.Wait(tailDone)
			if finished++; finished == nProcs {
				done.Trigger()
			}
		})
	}
	env.Process("collector", func(p *Proc) {
		p.Wait(done)
		*collector = append(*collector, fmt.Sprintf("all@%v n=%d", p.Now(), shared))
	})
	return logs, collector
}

// TestRandomWorldReplaysIdentically is the kernel's determinism golden: 100
// random worlds, each built and run twice from one seed in one process, must
// give byte-identical (at, seq) traces, end times and observable outcomes.
func TestRandomWorldReplaysIdentically(t *testing.T) {
	type run struct {
		end   time.Duration
		trace []TraceEntry
		out   string
	}
	replay := func(seed int64, nProcs, steps int) run {
		env := NewEnv(seed)
		env.StartTrace()
		logs, col := buildRandomWorld(env, nProcs, steps)
		end := env.Run(0)
		return run{end, env.Trace(), fmt.Sprint(logs, *col)}
	}
	for seed := int64(1); seed <= 100; seed++ {
		nProcs := 2 + int(seed%7)
		steps := 4 + int(seed%11)
		a, b := replay(seed, nProcs, steps), replay(seed, nProcs, steps)
		if a.end != b.end {
			t.Fatalf("seed %d: end time %v, then %v", seed, a.end, b.end)
		}
		if !slices.Equal(a.trace, b.trace) {
			t.Fatalf("seed %d: traces of %d and %d steps differ", seed, len(a.trace), len(b.trace))
		}
		if a.out != b.out {
			t.Fatalf("seed %d: outcomes differ:\n%s\n%s", seed, a.out, b.out)
		}
	}
}

// A panic inside a process surfaces from Run on the caller's goroutine with
// the process's own panic value.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv(1)
	for d := 1; d <= 3; d++ {
		env.Process("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			if d == 2 {
				panic("boom")
			}
		})
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		env.Run(0)
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want the process's \"boom\"", got)
	}
}
