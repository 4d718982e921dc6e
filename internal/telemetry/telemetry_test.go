package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestProbeSamplingOnVirtualClock(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{SamplePeriod: 100 * time.Millisecond})
	var depth float64
	r.Probe("queue.depth", func(now time.Duration) (float64, bool) {
		return depth, true
	}, L("dir", "fwd"))
	env.Process("load", func(p *sim.Proc) {
		depth = 3
		p.Sleep(250 * time.Millisecond) // crosses 100ms and 200ms ticks
		depth = 7
		p.Sleep(100 * time.Millisecond) // crosses 300ms tick
	})
	env.Run(0)
	s := r.Series("queue.depth", L("dir", "fwd"))
	if s == nil {
		t.Fatal("series not found")
	}
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %+v, want samples at 100ms/200ms/300ms", pts)
	}
	want := []struct {
		at time.Duration
		v  float64
	}{{100 * time.Millisecond, 3}, {200 * time.Millisecond, 3}, {300 * time.Millisecond, 7}}
	for i, w := range want {
		if pts[i].At != w.at || pts[i].Value != w.v {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], w)
		}
	}
}

// A probe over a stopped component ends its own timeline by declining
// samples; the series recorded so far stays.
func TestProbeOkGateEndsTimeline(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{SamplePeriod: time.Second})
	r.Probe("x", func(now time.Duration) (float64, bool) {
		return 1, now < 2*time.Second // decline the 2s sample and every later one
	})
	env.Process("run", func(p *sim.Proc) { p.Sleep(4500 * time.Millisecond) })
	env.Run(0)
	if got := r.Series("x").Len(); got != 1 {
		t.Fatalf("series len = %d, want 1 (1s sample only)", got)
	}
}

// TestProbeRebindContinuesSeries pins the component-replacement contract:
// re-registering a probe key swaps the callback but keeps the series, so a
// tenant's timeline survives its engine being replaced mid-run.
func TestProbeRebindContinuesSeries(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{SamplePeriod: time.Second})
	old := r.Probe("rpo", func(time.Duration) (float64, bool) { return 1, true }, L("tenant", "a"))
	env.Process("run", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		nw := r.Probe("rpo", func(time.Duration) (float64, bool) { return 2, true }, L("tenant", "a"))
		if nw != old {
			t.Error("rebind must return the existing probe")
		}
		p.Sleep(time.Second)
	})
	env.Run(0)
	pts := r.Series("rpo", L("tenant", "a")).Points()
	if len(pts) != 2 || pts[0].Value != 1 || pts[1].Value != 2 {
		t.Fatalf("rebound series = %+v, want [1@1s 2@2s]", pts)
	}
}

// TestProbeKindMismatchPanics: a key belongs to the kind that registered it
// first. Every kind's constructor goes through the one get-or-create, so each
// of the four must refuse a key held by each of the other three — and hand
// back the same instrument for its own.
func TestProbeKindMismatchPanics(t *testing.T) {
	fn := func(time.Duration) (float64, bool) { return 0, true }
	kinds := []struct {
		name     string
		register func(r *Registry) any
	}{
		{"counter", func(r *Registry) any { return r.Counter("dup", L("a", "b")) }},
		{"gauge", func(r *Registry) any { return r.Gauge("dup", L("a", "b")) }},
		{"histogram", func(r *Registry) any { return r.Histogram("dup", L("a", "b")) }},
		{"probe", func(r *Registry) any { return r.Probe("dup", fn, L("a", "b")) }},
	}
	for _, first := range kinds {
		for _, second := range kinds {
			r := New(sim.NewEnv(1), Config{})
			held := first.register(r)
			var got, panicked any
			func() {
				defer func() { panicked = recover() }()
				got = second.register(r)
			}()
			switch {
			case first.name == second.name && (panicked != nil || got != held):
				t.Errorf("%s twice: got %p (panic %v), want the first %p back", first.name, got, panicked, held)
			case first.name != second.name && panicked == nil:
				t.Errorf("%s over a key held by a %s did not panic", second.name, first.name)
			}
		}
	}
}

func TestCounterGetOrCreateAndLabelOrder(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{})
	a := r.Counter("hits", L("a", "1"), L("b", "2"))
	b := r.Counter("hits", L("b", "2"), L("a", "1")) // label order canonicalized
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("value = %d", a.Value())
	}
}

func TestSpansExportAsChromeTrace(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{})
	env.Process("work", func(p *sim.Proc) {
		sp := r.StartSpan("epoch", "drain", "tenant-000")
		p.Sleep(5 * time.Millisecond)
		sp.End()
		r.Instant("failover", "site-cut", "tenant-001")
	})
	env.Run(0)
	ex := r.Snapshot()
	// Two thread_name metadata events (sorted tracks) + two span events.
	if len(ex.TraceEvents) != 4 {
		t.Fatalf("trace events = %+v", ex.TraceEvents)
	}
	meta0, meta1 := ex.TraceEvents[0], ex.TraceEvents[1]
	if meta0.Args["name"] != "tenant-000" || meta1.Args["name"] != "tenant-001" {
		t.Fatalf("track metadata not in sorted order: %+v %+v", meta0, meta1)
	}
	x := ex.TraceEvents[2]
	if x.Ph != "X" || x.Name != "drain" || x.Cat != "epoch" || x.Dur != 5000 || x.Tid != meta0.Tid {
		t.Fatalf("duration event = %+v", x)
	}
	i := ex.TraceEvents[3]
	if i.Ph != "i" || i.Ts != x.Ts+5000 || i.Tid != meta1.Tid {
		t.Fatalf("instant event = %+v", i)
	}
}

// One track is one row of "X" events, which must nest: spans that are
// disjoint, touch, coincide or enclose one another are fine, on one track or
// across tracks; one that straddles another's end on the same track is what
// SpanOverlap reports.
func TestSpanOverlapFindsStraddlingSpansOnOneTrack(t *testing.T) {
	type iv struct {
		track      string
		start, end time.Duration // end 0: left open
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		name  string
		spans []iv
		bad   bool
	}{
		{"disjoint, touching, nested, coinciding", []iv{
			{"a", 0, 2 * ms}, {"a", 2 * ms, 4 * ms}, {"a", 5 * ms, 9 * ms}, {"a", 6 * ms, 7 * ms},
			{"a", 7 * ms, 9 * ms}, {"a", 10 * ms, 11 * ms}, {"a", 10 * ms, 11 * ms}, {"a", 11 * ms, 11 * ms}}, false},
		{"two workers on one track", []iv{{"a", 0, 3 * ms}, {"a", ms, 4 * ms}}, true},
		{"two workers on two tracks", []iv{{"a", 0, 3 * ms}, {"a/w1", ms, 4 * ms}}, false},
		{"straddles the inner of two", []iv{{"a", 0, 9 * ms}, {"a", ms, 3 * ms}, {"a", 2 * ms, 4 * ms}}, true},
		{"open span encloses later ones", []iv{{"a", 0, 0}, {"a", ms, 3 * ms}}, false},
		{"open span outlives the closed one around it", []iv{{"a", 0, 3 * ms}, {"a", ms, 0}, {"b", 0, 5 * ms}}, true},
	} {
		env := sim.NewEnv(1)
		r := New(env, Config{})
		for _, s := range tc.spans {
			env.After(s.start, func() {
				sp := r.StartSpan("work", "unit", s.track)
				if s.end > 0 {
					env.After(s.end-s.start, sp.End)
				}
			})
		}
		env.Run(0)
		if err := r.SpanOverlap(); (err != nil) != tc.bad {
			t.Errorf("%s: SpanOverlap = %v, want an error: %v", tc.name, err, tc.bad)
		}
	}
	if err := (*Registry)(nil).SpanOverlap(); err != nil {
		t.Errorf("nil registry: %v", err)
	}
}

func TestOpenSpanClampsToNow(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{})
	env.Process("work", func(p *sim.Proc) {
		r.StartSpan("reshard", "migration", "tenant-000") // never ended
		p.Sleep(time.Second)
	})
	env.Run(0)
	ex := r.Snapshot()
	ev := ex.TraceEvents[len(ex.TraceEvents)-1]
	if ev.Dur != micros(time.Second) {
		t.Fatalf("open span dur = %v, want clamped to run end", ev.Dur)
	}
}

func TestTopK(t *testing.T) {
	env := sim.NewEnv(1)
	r := New(env, Config{SamplePeriod: time.Second})
	vals := map[string]float64{"a": 5, "b": 9, "c": 9, "d": 1}
	for name, v := range vals {
		v := v
		r.Probe("rpo", func(now time.Duration) (float64, bool) { return v, true }, L("tenant", name))
	}
	env.Process("run", func(p *sim.Proc) { p.Sleep(3 * time.Second) })
	env.Run(0)
	top := r.TopK("rpo", 3, 0, time.Hour)
	if len(top) != 3 {
		t.Fatalf("topk = %+v", top)
	}
	// b and c tie at 9; key order breaks the tie deterministically.
	if top[0].Key != "rpo{tenant=b}" || top[1].Key != "rpo{tenant=c}" || top[2].Key != "rpo{tenant=a}" {
		t.Fatalf("topk order = %+v", top)
	}
	if top[0].Max != 9 || top[0].At != time.Second {
		t.Fatalf("topk[0] = %+v", top[0])
	}
	// Windowing: nothing sampled before 1s.
	if got := r.TopK("rpo", 3, 0, 500*time.Millisecond); got != nil {
		t.Fatalf("empty-window topk = %+v", got)
	}
}

func TestExportDeterministicBytes(t *testing.T) {
	run := func() []byte {
		env := sim.NewEnv(7)
		r := New(env, Config{SamplePeriod: time.Second})
		c := r.Counter("events", L("kind", "x"))
		h := r.Histogram("lat")
		r.Probe("depth", func(now time.Duration) (float64, bool) { return float64(now / time.Second), true })
		env.Process("w", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				sp := r.StartSpan("work", "unit", "w")
				p.Sleep(700 * time.Millisecond)
				sp.End()
				c.Inc()
				h.Record(time.Duration(i+1) * time.Millisecond)
			}
		})
		env.Run(0)
		if err := r.SpanOverlap(); err != nil {
			t.Fatal(err)
		}
		b, err := r.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("export not byte-identical across identical runs:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{`"traceEvents"`, `"counters"`, `"histograms"`, `"series"`, `"events{kind=x}"`} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("export missing %s:\n%s", want, a)
		}
	}
}

// TestDisabledPathAllocationFree pins the zero-cost-when-disabled claim: all
// hot-path operations on instruments from a nil registry must not allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Record(time.Millisecond)
		sp := r.StartSpan("cat", "name", "track")
		sp.End()
		r.Instant("cat", "name", "track")
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}

func TestNilRegistryQueries(t *testing.T) {
	var r *Registry
	if r.Series("x") != nil || r.TopK("x", 3, 0, time.Hour) != nil {
		t.Fatal("nil registry queries must return zero values")
	}
	if p := r.Probe("x", func(time.Duration) (float64, bool) { return 0, true }); p != nil {
		t.Fatal("nil registry probe must be nil")
	}
	ex := r.Snapshot()
	if len(ex.TraceEvents) != 0 || len(ex.Counters) != 0 {
		t.Fatalf("nil snapshot = %+v", ex)
	}
}
