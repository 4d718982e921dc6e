package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// profileWorld starts processes that block in every way the kernel offers —
// Sleep, Wait, WaitAny, WaitTimeout both ways, Resource.Acquire, Chan.Get and
// Chan.GetTimeout — and returns each one's lifetime, filled in as it returns.
func profileWorld(env *Env) map[string]time.Duration {
	lives := map[string]time.Duration{}
	proc := func(name string, at time.Duration, fn func(p *Proc)) {
		env.ProcessAt(name, at, func(p *Proc) {
			start := p.Now()
			fn(p)
			lives[name] = p.Now() - start
		})
	}
	ready, late, never := env.NewEvent(), env.NewEvent(), env.NewEvent()
	res := env.NewResource(1)
	ch := NewChan[int](env)
	proc("tenant:a", 0, func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		ready.Trigger()
		res.Acquire(p)
		p.Sleep(5 * time.Millisecond)
		res.Release()
		ch.Put(1)
	})
	proc("tenant:b", time.Millisecond, func(p *Proc) {
		p.Wait(ready)
		res.Acquire(p) // queues behind tenant:a
		res.Release()
		p.WaitTimeout(never, 2*time.Millisecond)
		p.WaitAny(never, late)
	})
	proc("reader", 0, func(p *Proc) {
		ch.Get(p)
		ch.GetTimeout(p, 4*time.Millisecond)
		p.WaitTimeout(ready, time.Second)
		for i := range 3 {
			p.Sleep(time.Duration(i) * time.Millisecond)
		}
		late.Trigger()
	})
	return lives
}

func tenantOfName(process string) string {
	if ns, ok := strings.CutPrefix(process, "tenant:"); ok {
		return ns
	}
	return ""
}

// The sim-time profile is exact by construction: simulated time passes only
// while a process blocks, so each process's samples sum to its lifetime.
func TestSimProfileSumsToEachLifetime(t *testing.T) {
	env := NewEnv(1)
	env.StartSimProfile(tenantOfName)
	lives := profileWorld(env)
	env.Run(0)
	if len(lives) != 3 {
		t.Fatalf("%d of 3 processes returned", len(lives))
	}
	if st := env.Stats(); st.InPlace == 0 || st.Handoffs == 0 {
		t.Fatalf("Stats %+v: the world must block both in place and through a switch", st)
	}
	sums := map[string]time.Duration{}
	for _, s := range env.SimProfile() {
		sums[s.Process] += s.Time
		if want := tenantOfName(s.Process); s.Tenant != want {
			t.Errorf("%s: tenant label %q, want %q", s.Process, s.Tenant, want)
		}
		leaf, _ := runtime.CallersFrames(s.Stack).Next()
		if !strings.HasPrefix(leaf.Function, "repro/internal/sim.(*Proc).") {
			t.Errorf("%s: leaf frame %s, want the blocking Proc method", s.Process, leaf.Function)
		}
	}
	for name, life := range lives {
		if life == 0 || sums[name] != life {
			t.Errorf("%s: samples sum to %v, lifetime %v", name, sums[name], life)
		}
	}
}

// Recording the profile adds no step and moves none, resumes as many
// processes in place, and one seed records one profile.
func TestSimProfileKeepsTheTrace(t *testing.T) {
	run := func(profile bool) ([]TraceEntry, Stats, string) {
		env := NewEnv(3)
		env.StartTrace()
		if profile {
			env.StartSimProfile(nil)
		}
		buildRandomWorld(env, 5, 9)
		env.Run(0)
		return env.Trace(), env.Stats(), fmt.Sprint(env.SimProfile())
	}
	off, offStats, none := run(false)
	on, onStats, prof := run(true)
	again, _, prof2 := run(true)
	if none != "[]" {
		t.Fatalf("profile off recorded %s", none)
	}
	if !slices.Equal(off, on) || !slices.Equal(on, again) {
		t.Fatalf("traces of %d, %d and %d steps differ with the profile on", len(off), len(on), len(again))
	}
	if offStats != onStats || onStats.InPlace == 0 || onStats.Handoffs == 0 {
		t.Fatalf("Stats %+v with the profile off, %+v on; want equal, with both kinds of resume", offStats, onStats)
	}
	if prof != prof2 {
		t.Fatalf("one seed recorded two profiles:\n%s\n%s", prof, prof2)
	}
}
