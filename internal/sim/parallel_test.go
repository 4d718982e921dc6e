package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

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
				q.Trigger(ev)
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

// buildRandomWorld wires a randomized multi-domain workload: nDomains
// domain processes doing random sleeps and cross-waking a same-domain
// helper through attributed triggers, plus a shared domain-0 collector the
// domains signal through a channel-like event handshake. Helpers finish
// inside rounds. A domain that has left its rounds spawns a tail process
// that joins the domain; all tails fall due at the same instant, so they
// share one round as wide as the world, and each triggers its (by then
// domain-0) parent and finishes inside it. Every observable
// (per-domain logs, collector log, finish times) is returned for
// equivalence checking.
func buildRandomWorld(env *Env, seed int64, nDomains, steps int) (logs [][]string, collected *[]string) {
	logs = make([][]string, nDomains)
	var shared atomic.Int64
	collector := &[]string{}
	done := env.NewEvent()
	var finished atomic.Int64
	for d := 0; d < nDomains; d++ {
		d := d
		rng := rand.New(rand.NewSource(seed + int64(d)*997))
		env.Process(fmt.Sprintf("dom%d", d), func(p *Proc) {
			p.SetDomain(d + 1)
			local := env.NewEvent()
			env.Process(fmt.Sprintf("helper%d", d), func(q *Proc) {
				q.SetDomain(d + 1)
				q.Wait(local)
				logs[d] = append(logs[d], fmt.Sprintf("helper@%v", q.Now()))
			})
			for i := 0; i < steps; i++ {
				p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				logs[d] = append(logs[d], fmt.Sprintf("s%d@%v", i, p.Now()))
				if i == steps/2 {
					p.Trigger(local)
				}
				if rng.Intn(3) == 0 {
					ev := env.NewEvent()
					if p.WaitTimeout(ev, time.Duration(rng.Intn(3))*time.Millisecond) {
						logs[d] = append(logs[d], "impossible")
					}
				}
				shared.Add(1)
			}
			p.SetDomain(0)
			p.Sleep(0) // step boundary: the next step runs outside the round
			*collector = append(*collector, fmt.Sprintf("d%d@%v", d, p.Now()))
			tailDone := env.NewEvent()
			env.Process(fmt.Sprintf("tail%d", d), func(q *Proc) {
				q.SetDomain(d + 1)
				q.Sleep(time.Second - q.Now()) // every random walk ends well before 1s
				logs[d] = append(logs[d], fmt.Sprintf("tail@%v", q.Now()))
				q.Trigger(tailDone)
			})
			p.Wait(tailDone)
			if finished.Add(1) == int64(nDomains) {
				p.Trigger(done)
			}
		})
	}
	env.Process("collector", func(p *Proc) {
		p.Wait(done)
		*collector = append(*collector, fmt.Sprintf("all@%v n=%d", p.Now(), shared.Load()))
	})
	return logs, collector
}

// TestParallelSchedulerMatchesSequential is the kernel-level golden-trace
// test: 100 random seeds, each world run under Run and under RunParallel
// with fewer workers than domains (2) and with 4, with byte-identical
// (at, seq) traces and identical observable outcomes. Under -race it is
// also what checks that resuming one coroutine from different goroutines,
// round after round, orders every access to the process's state.
func TestParallelSchedulerMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		nDomains := 2 + int(seed%7)
		steps := 4 + int(seed%11)

		seqEnv := NewEnv(seed)
		seqEnv.StartTrace()
		seqLogs, seqCol := buildRandomWorld(seqEnv, seed, nDomains, steps)
		seqEnd := seqEnv.Run(0)

		for _, workers := range []int{2, 4} {
			parEnv := NewEnv(seed)
			parEnv.StartTrace()
			parLogs, parCol := buildRandomWorld(parEnv, seed, nDomains, steps)
			parEnd := parEnv.RunParallel(0, workers)

			if seqEnd != parEnd {
				t.Fatalf("seed %d workers %d: end time %v (seq) vs %v (par)", seed, workers, seqEnd, parEnd)
			}
			st, pt := seqEnv.Trace(), parEnv.Trace()
			if len(st) != len(pt) {
				t.Fatalf("seed %d workers %d: trace length %d (seq) vs %d (par)", seed, workers, len(st), len(pt))
			}
			for i := range st {
				if st[i] != pt[i] {
					t.Fatalf("seed %d workers %d: trace[%d] = %+v (seq) vs %+v (par)", seed, workers, i, st[i], pt[i])
				}
			}
			if fmt.Sprint(seqLogs) != fmt.Sprint(parLogs) {
				t.Fatalf("seed %d workers %d: domain logs differ:\nseq: %v\npar: %v", seed, workers, seqLogs, parLogs)
			}
			if fmt.Sprint(*seqCol) != fmt.Sprint(*parCol) {
				t.Fatalf("seed %d workers %d: collector differs:\nseq: %v\npar: %v", seed, workers, *seqCol, *parCol)
			}
			// Seed 1 has three domains: its rounds must form, and one must
			// hold all three (more steps than two per round).
			if st := parEnv.Stats(); seed == 1 && st.ParallelSteps <= 2*st.ParallelRounds {
				t.Fatalf("workers %d: %d rounds, %d steps — no round of three domains formed", workers, st.ParallelRounds, st.ParallelSteps)
			}
		}
	}
}

// TestParallelRoundsActuallyForm pins that same-instant distinct-domain
// steps group into rounds (not just degenerate size-1 runs).
func TestParallelRoundsActuallyForm(t *testing.T) {
	env := NewEnv(1)
	const n = 8
	for d := 0; d < n; d++ {
		d := d
		env.Process(fmt.Sprintf("d%d", d), func(p *Proc) {
			p.SetDomain(d + 1)
			for i := 0; i < 10; i++ {
				p.Sleep(time.Millisecond) // all domains due at the same instants
			}
		})
	}
	env.RunParallel(0, 4)
	st := env.Stats()
	if st.ParallelRounds == 0 || st.ParallelSteps < 50 {
		t.Fatalf("rounds=%d steps=%d; want many multi-step rounds", st.ParallelRounds, st.ParallelSteps)
	}
}

// TestBareTriggerWithWaitersPanicsInRound pins the discipline check that
// catches unattributed triggers during parallel rounds.
func TestBareTriggerWithWaitersPanicsInRound(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	env.Process("waiter", func(p *Proc) { p.Wait(ev) })
	var recovered atomic.Bool
	for d := 0; d < 2; d++ {
		d := d
		env.Process(fmt.Sprintf("d%d", d), func(p *Proc) {
			p.SetDomain(d + 1)
			p.Sleep(time.Millisecond)
			if d == 0 {
				defer func() {
					if recover() != nil {
						recovered.Store(true)
						p.Trigger(ev) // release the waiter so the run drains
					}
				}()
				ev.Trigger() // bare: must panic inside a round
			} else {
				p.Sleep(time.Millisecond)
			}
		})
	}
	env.RunParallel(0, 2)
	if !recovered.Load() {
		t.Fatal("bare Event.Trigger with waiters did not panic during a round")
	}
}
