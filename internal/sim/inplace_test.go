package sim

import (
	"slices"
	"testing"
	"time"
)

const ms = time.Millisecond

// advance is one OnAdvance call, with the entries pending when it was made:
// a resume in place must advance the clock while its own entry is still
// queued, as Run does.
type advance struct {
	from, to time.Duration
	pending  int
}

// Each schedule runs on a fresh env with the trace and an OnAdvance observer
// on. The wanted trace, observer calls and counts are derived by hand from
// the (at, seq) order: seqs are numbered in scheduling order from 1, and a
// process's own wake-up resumes in place exactly when Run would execute it
// next.
func TestResumeInPlaceKeepsTheOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		setup   func(env *Env)
		horizon time.Duration
		trace   []TraceEntry
		advance []advance
		// handoffs and inPlace are the process steps by how they resumed.
		handoffs, inPlace int64
	}{
		{
			name: "lone sleeper",
			setup: func(env *Env) {
				env.Process("p", func(p *Proc) {
					for range 3 {
						p.Sleep(ms)
					}
				})
			},
			trace:    []TraceEntry{{0, 1}, {ms, 2}, {2 * ms, 3}, {3 * ms, 4}},
			advance:  []advance{{0, ms, 1}, {ms, 2 * ms, 1}, {2 * ms, 3 * ms, 1}},
			handoffs: 1, inPlace: 3,
		},
		{
			// a sleeps 0→2→4, b 1→3→5: whenever one blocks, the other is due
			// first.
			name: "two staggered sleepers",
			setup: func(env *Env) {
				env.Process("a", func(p *Proc) { p.Sleep(2 * ms); p.Sleep(2 * ms) })
				env.ProcessAt("b", ms, func(p *Proc) { p.Sleep(2 * ms); p.Sleep(2 * ms) })
			},
			trace: []TraceEntry{{0, 1}, {ms, 2}, {2 * ms, 3}, {3 * ms, 4}, {4 * ms, 5}, {5 * ms, 6}},
			advance: []advance{{0, ms, 2}, {ms, 2 * ms, 2}, {2 * ms, 3 * ms, 2},
				{3 * ms, 4 * ms, 2}, {4 * ms, 5 * ms, 1}},
			handoffs: 6,
		},
		{
			// p's first wake-up ties the inline step's 1 ms, whose seq is
			// older: the step runs first, so p switches. Its second is next.
			name: "wake-up ties a heap entry",
			setup: func(env *Env) {
				env.Process("p", func(p *Proc) { p.Sleep(ms); p.Sleep(ms) })
				env.After(ms, func() {})
			},
			trace:    []TraceEntry{{0, 1}, {ms, 2}, {ms, 3}, {2 * ms, 4}},
			advance:  []advance{{0, ms, 2}, {ms, 2 * ms, 1}},
			handoffs: 2, inPlace: 1,
		},
		{
			name: "Sleep(0) with an empty FIFO",
			setup: func(env *Env) {
				env.Process("p", func(p *Proc) { p.Sleep(0); p.Sleep(ms) })
			},
			trace:    []TraceEntry{{0, 1}, {0, 2}, {ms, 3}},
			advance:  []advance{{0, ms, 1}},
			handoffs: 1, inPlace: 2,
		},
		{
			// The inline step queued first heads the FIFO, so p switches.
			name: "Sleep(0) behind a FIFO entry",
			setup: func(env *Env) {
				env.Process("p", func(p *Proc) {
					env.Immediate(func() {})
					p.Sleep(0)
					p.Sleep(ms)
				})
			},
			trace:    []TraceEntry{{0, 1}, {0, 2}, {0, 3}, {ms, 4}},
			advance:  []advance{{0, ms, 1}},
			handoffs: 2, inPlace: 1,
		},
		{
			name: "WaitTimeout whose timer is next",
			setup: func(env *Env) {
				never := env.NewEvent()
				env.Process("p", func(p *Proc) {
					if p.WaitTimeout(never, 2*ms) {
						panic("an untriggered event won")
					}
					p.Sleep(ms)
				})
			},
			trace:    []TraceEntry{{0, 1}, {2 * ms, 2}, {3 * ms, 3}},
			advance:  []advance{{0, 2 * ms, 1}, {2 * ms, 3 * ms, 1}},
			handoffs: 1, inPlace: 2,
		},
		{
			// Run(3 ms) cuts before p's 5 ms wake-up: p stays parked and the
			// clock stops at the horizon.
			name: "horizon before the wake-up",
			setup: func(env *Env) {
				env.Process("p", func(p *Proc) { p.Sleep(5 * ms) })
			},
			horizon:  3 * ms,
			trace:    []TraceEntry{{0, 1}},
			advance:  []advance{{0, 3 * ms, 1}},
			handoffs: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			env.StartTrace()
			var got []advance
			env.OnAdvance(func(from, to time.Duration) {
				got = append(got, advance{from, to, env.Pending()})
			})
			tc.setup(env)
			end := env.Run(tc.horizon)
			if !slices.Equal(env.Trace(), tc.trace) {
				t.Errorf("trace %v, want %v", env.Trace(), tc.trace)
			}
			if !slices.Equal(got, tc.advance) {
				t.Errorf("OnAdvance calls %v, want %v", got, tc.advance)
			}
			st := env.Stats()
			if st.Handoffs != tc.handoffs || st.InPlace != tc.inPlace {
				t.Errorf("handoffs %d, in place %d; want %d, %d", st.Handoffs, st.InPlace, tc.handoffs, tc.inPlace)
			}
			if steps := int64(len(tc.trace)) - st.InlineSteps; st.Handoffs+st.InPlace != steps {
				t.Errorf("handoffs %d + in place %d != %d process steps", st.Handoffs, st.InPlace, steps)
			}
			if wantEnd := tc.trace[len(tc.trace)-1].At; tc.horizon > 0 {
				if end != tc.horizon || env.Procs() != 1 {
					t.Errorf("Run(%v) ended at %v with %d processes, want the horizon with p parked", tc.horizon, end, env.Procs())
				}
			} else if end != wantEnd || env.Procs() != 0 {
				t.Errorf("Run ended at %v with %d processes, want %v and none", end, env.Procs(), wantEnd)
			}
		})
	}
}
