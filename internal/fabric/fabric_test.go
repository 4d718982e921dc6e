package fabric

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// flood spawns procs back-to-back transferring size bytes on path until the
// stop time, and returns a counter of completed transfers.
func flood(env *sim.Env, path Path, procs, size int, until time.Duration, done *int) {
	for i := 0; i < procs; i++ {
		env.Process("flood", func(p *sim.Proc) {
			for p.Now() < until {
				path.Transfer(p, size)
				*done++
			}
		})
	}
}

func TestPassthroughMatchesRawLink(t *testing.T) {
	// A single-member, classless fabric must be byte-for-byte the raw link:
	// same completion times, including pipelined propagation.
	lcfg := netlink.Config{Propagation: 100 * time.Millisecond, BandwidthBps: 1e6}
	run := func(mk func(env *sim.Env) Path) []time.Duration {
		env := sim.NewEnv(1)
		path := mk(env)
		var done []time.Duration
		for i := 0; i < 2; i++ {
			env.Process("tx", func(p *sim.Proc) {
				path.Transfer(p, 1000)
				done = append(done, p.Now())
			})
		}
		env.Run(0)
		return done
	}
	raw := run(func(env *sim.Env) Path { return netlink.New(env, lcfg) })
	fab := run(func(env *sim.Env) Path {
		f := New(env, Config{Links: []netlink.Config{lcfg}})
		if f.scheduled {
			t.Fatal("single-link classless fabric should be passthrough")
		}
		return f.Path("", "t0")
	})
	for i := range raw {
		if raw[i] != fab[i] {
			t.Fatalf("completion %d: raw %v vs fabric %v", i, raw[i], fab[i])
		}
	}
}

func TestPassthroughCountsOnPath(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, Config{Links: []netlink.Config{{BandwidthBps: 1e6}}})
	tp := f.Path("", "t0")
	env.Process("tx", func(p *sim.Proc) {
		tp.Transfer(p, 500)
		tp.Transfer(p, 500)
	})
	env.Run(0)
	if tp.Bytes() != 1000 || tp.Transfers() != 2 {
		t.Fatalf("path counters: bytes=%d transfers=%d", tp.Bytes(), tp.Transfers())
	}
	if st := f.ClassStats("best-effort"); st.Bytes != 1000 || st.Transfers != 2 {
		t.Fatalf("class counters: %+v", st)
	}
}

func TestWeightedClassesShareByWeight(t *testing.T) {
	// One 1MB/s link, two continuously-backlogged classes with weights 3:1.
	// Completed bytes must split roughly by weight.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links: []netlink.Config{{BandwidthBps: 1e6}},
		Classes: []ClassConfig{
			{Name: "gold", Weight: 3},
			{Name: "bulk", Weight: 1},
		},
	})
	gold := f.Path("gold", "gold-tenant")
	bulk := f.Path("bulk", "bulk-tenant")
	horizon := 2 * time.Second
	var gDone, bDone int
	flood(env, gold, 4, 10_000, horizon, &gDone)
	flood(env, bulk, 4, 10_000, horizon, &bDone)
	env.Run(horizon)
	f.Stop()
	ratio := float64(gold.Bytes()) / float64(bulk.Bytes())
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("gold:bulk byte ratio = %.2f (gold=%d bulk=%d), want ~3",
			ratio, gold.Bytes(), bulk.Bytes())
	}
	// The link itself should be near saturation: ~1MB moved per second.
	total := gold.Bytes() + bulk.Bytes()
	if total < 1_500_000 {
		t.Fatalf("link underdriven: %d bytes in %v", total, horizon)
	}
}

func TestTokenBucketCapsClassRate(t *testing.T) {
	// A fat link but a 100KB/s cap on the class: long-run throughput must
	// track the cap, not the link.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:   []netlink.Config{{BandwidthBps: 1e9}},
		Classes: []ClassConfig{{Name: "capped", Weight: 1}},
	})
	f.SetClassRate("capped", 1e5)
	tp := f.Path("capped", "t0")
	horizon := 4 * time.Second
	var done int
	flood(env, tp, 2, 10_000, horizon, &done)
	env.Run(horizon)
	f.Stop()
	bps := float64(tp.Bytes()) / horizon.Seconds()
	if bps > 1.3e5 || bps < 0.5e5 {
		t.Fatalf("capped class moved %.0f B/s, want ~1e5", bps)
	}
}

func TestTokenBlockedDispatcherWakesForUncappedWork(t *testing.T) {
	// Regression: while the only dispatcher waits out a capped class's
	// bucket refill, an uncapped class's transfer must be served promptly,
	// not after the refill expires.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:   []netlink.Config{{BandwidthBps: 1e6}},
		Classes: []ClassConfig{{Name: "gold", Weight: 1}, {Name: "capped", Weight: 1}},
	})
	f.SetClassRate("capped", 1e4)
	capped := f.Path("capped", "capped")
	gold := f.Path("gold", "gold")
	var cappedSecond, goldDone time.Duration
	env.Process("capped", func(p *sim.Proc) {
		capped.Transfer(p, 10_000) // token-blocked ~1s: a first cap starts empty
		capped.Transfer(p, 10_000) // another ~1s
		cappedSecond = p.Now()
	})
	env.Process("gold", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // arrive mid-refill-wait
		gold.Transfer(p, 5_000)
		goldDone = p.Now()
	})
	env.Run(0)
	f.Stop()
	if goldDone > 100*time.Millisecond {
		t.Fatalf("uncapped transfer waited out the refill: done at %v", goldDone)
	}
	if cappedSecond < 1900*time.Millisecond {
		t.Fatalf("capped transfers beat their bucket: done at %v", cappedSecond)
	}
}

// SetClassRate is the only way a class gets capped, and its bucket rules are
// what E17's derates run on: a class capped for the first time starts with an
// empty bucket, the balance carries across a cap removed and set again, and a
// raised cap wakes a dispatcher parked on the old one at once.
func TestSetClassRateBucketRules(t *testing.T) {
	const size = 10_000
	run := func(t *testing.T, script func(p *sim.Proc, f *Fabric, tp *TenantPath)) {
		t.Helper()
		env := sim.NewEnv(1)
		f := New(env, Config{
			Links:   []netlink.Config{{BandwidthBps: 1e9}},
			Classes: []ClassConfig{{Name: "bulk"}},
		})
		tp := f.Path("bulk", "t0")
		env.Process("script", func(p *sim.Proc) { script(p, f, tp) })
		env.Run(0)
		f.Stop()
	}
	ser := time.Duration(size) * time.Second / 1e9 // 10µs on the wire
	near := func(got, want time.Duration) bool { return got > want-time.Millisecond && got < want+time.Millisecond }

	t.Run("first cap starts empty", func(t *testing.T) {
		run(t, func(p *sim.Proc, f *Fabric, tp *TenantPath) {
			if f.SetClassRate("missing", 1) || !f.SetClassRate("bulk", 1e4) {
				t.Error("SetClassRate must accept exactly the configured classes")
			}
			if took := tp.Transfer(p, size); !near(took, time.Second+ser) {
				t.Errorf("a 10 KB transfer under a fresh 10 KB/s cap took %v, want ~1s", took)
			}
		})
	})
	t.Run("balance carries across a restore", func(t *testing.T) {
		run(t, func(p *sim.Proc, f *Fabric, tp *TenantPath) {
			f.SetClassRate("bulk", 1e4)
			p.Sleep(3 * time.Second) // idle: 30 KB banked
			f.SetClassRate("bulk", 0)
			tp.Transfer(p, size) // uncapped transfers spend no tokens
			f.SetClassRate("bulk", 1e4)
			start := p.Now()
			for i := 0; i < 3; i++ {
				tp.Transfer(p, size)
			}
			if took := p.Now() - start; !near(took, 3*ser) {
				t.Errorf("three 10 KB transfers on a 30 KB balance took %v, want no token wait", took)
			}
			if took := tp.Transfer(p, size); !near(took, time.Second+ser) {
				t.Errorf("the fourth took %v, want ~1s: the balance is spent", took)
			}
		})
	})
	t.Run("raised cap wakes a blocked dispatcher", func(t *testing.T) {
		run(t, func(p *sim.Proc, f *Fabric, tp *TenantPath) {
			f.SetClassRate("bulk", 1e3) // 10 s for 10 KB
			p.Env().Process("raise", func(q *sim.Proc) {
				q.Sleep(100 * time.Millisecond)
				f.SetClassRate("bulk", 1e9)
			})
			if took := tp.Transfer(p, size); !near(took, 100*time.Millisecond) {
				t.Errorf("transfer took %v after the cap was raised at 100ms, want ~100ms", took)
			}
		})
	})
}

func TestMultiLinkSpreadsLoad(t *testing.T) {
	// Two equal members and several concurrent senders: both links carry
	// traffic.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:   []netlink.Config{{BandwidthBps: 1e6}, {BandwidthBps: 1e6}},
		Classes: []ClassConfig{{Name: "be", Weight: 1}},
	})
	tp := f.Path("be", "t0")
	horizon := time.Second
	var done int
	flood(env, tp, 4, 20_000, horizon, &done)
	env.Run(horizon)
	f.Stop()
	l0, l1 := f.Links()[0].SentBytes(), f.Links()[1].SentBytes()
	if l0 == 0 || l1 == 0 {
		t.Fatalf("load not spread: link0=%d link1=%d", l0, l1)
	}
}

func TestMemberPartitionFailsOverAndHealsBack(t *testing.T) {
	// Partition member 0 mid-run: traffic continues over member 1 only;
	// after heal, member 0 carries traffic again.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:   []netlink.Config{{BandwidthBps: 1e6}, {BandwidthBps: 1e6}},
		Classes: []ClassConfig{{Name: "be", Weight: 1}},
	})
	tp := f.Path("be", "t0")
	horizon := 3 * time.Second
	var done int
	flood(env, tp, 4, 20_000, horizon, &done)
	var at0Partition, at0Heal, at1Partition, at1Heal int64
	env.Process("chaos", func(p *sim.Proc) {
		p.Sleep(time.Second)
		at0Partition = f.Links()[0].SentBytes()
		at1Partition = f.Links()[1].SentBytes()
		f.Links()[0].Partition()
		p.Sleep(time.Second)
		at0Heal = f.Links()[0].SentBytes()
		at1Heal = f.Links()[1].SentBytes()
		f.Links()[0].Heal()
	})
	env.Run(horizon)
	f.Stop()
	// During the outage only the surviving member moved bytes (member 0 may
	// finish at most one in-flight transfer).
	if grew := at0Heal - at0Partition; grew > 20_000 {
		t.Fatalf("partitioned member kept carrying traffic: +%d bytes", grew)
	}
	if at1Heal <= at1Partition {
		t.Fatal("surviving member carried nothing during the outage")
	}
	if f.Links()[0].SentBytes() <= at0Heal {
		t.Fatal("healed member never resumed")
	}
	if done == 0 {
		t.Fatal("no transfers completed")
	}
}

func TestDedicatedLinkIsolatesClass(t *testing.T) {
	// Class affinity: bulk floods member 0; gold is pinned to member 1 and
	// must see unloaded latency.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links: []netlink.Config{
			{Propagation: time.Millisecond, BandwidthBps: 1e6},
			{Propagation: time.Millisecond, BandwidthBps: 1e6},
		},
		Classes: []ClassConfig{
			{Name: "bulk", Weight: 1, Links: []int{0}},
			{Name: "gold", Weight: 1, Links: []int{1}},
		},
	})
	bulk := f.Path("bulk", "noisy")
	gold := f.Path("gold", "victim")
	horizon := time.Second
	var bDone int
	flood(env, bulk, 6, 50_000, horizon, &bDone)
	var worst time.Duration
	env.Process("victim", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			took := gold.Transfer(p, 1000) // 1ms serialization + 1ms prop
			if took > worst {
				worst = took
			}
			p.Sleep(20 * time.Millisecond)
		}
	})
	env.Run(horizon)
	f.Stop()
	if worst > 5*time.Millisecond {
		t.Fatalf("victim latency %v on a dedicated link, want ~2ms", worst)
	}
	if l1 := f.Links()[1].SentBytes(); l1 != gold.Bytes() {
		t.Fatalf("dedicated member carried foreign bytes: link=%d gold=%d", l1, gold.Bytes())
	}
}

func TestOversizedTransferPassesQuantum(t *testing.T) {
	// A transfer far larger than quantum x weight must still be served
	// (deficit accumulates across rounds).
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:   []netlink.Config{{BandwidthBps: 1e9}},
		Classes: []ClassConfig{{Name: "be", Weight: 1}},
	})
	tp := f.Path("be", "t0")
	okDone := false
	env.Process("tx", func(p *sim.Proc) {
		tp.Transfer(p, 10<<20) // 10MB vs the 64KiB quantum
		okDone = true
	})
	env.Run(0)
	if !okDone {
		t.Fatal("oversized transfer never served")
	}
}

func TestInterconnectDirectionsIndependent(t *testing.T) {
	env := sim.NewEnv(1)
	fwd := []*netlink.Link{netlink.New(env, netlink.Config{BandwidthBps: 1e6})}
	rev := []*netlink.Link{netlink.New(env, netlink.Config{BandwidthBps: 1e6})}
	ic := NewInterconnect(env, Config{}, fwd, rev)
	fp := ic.Forward.Path("", "fwd")
	rp := ic.Reverse.Path("", "rev")
	env.Process("tx", func(p *sim.Proc) {
		fp.Transfer(p, 1000)
		rp.Transfer(p, 2000)
	})
	env.Run(0)
	if fwd[0].SentBytes() != 1000 || rev[0].SentBytes() != 2000 {
		t.Fatalf("direction bytes: fwd=%d rev=%d", fwd[0].SentBytes(), rev[0].SentBytes())
	}
}

func TestDeterministicScheduling(t *testing.T) {
	run := func() (int64, int64) {
		env := sim.NewEnv(42)
		f := New(env, Config{
			Links: []netlink.Config{
				{BandwidthBps: 1e6, Jitter: time.Millisecond, Propagation: time.Millisecond},
				{BandwidthBps: 2e6, Propagation: 2 * time.Millisecond},
			},
			Classes: []ClassConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
		})
		a := f.Path("a", "a")
		b := f.Path("b", "b")
		horizon := 500 * time.Millisecond
		var n int
		flood(env, a, 3, 7_000, horizon, &n)
		flood(env, b, 3, 9_000, horizon, &n)
		env.Run(horizon)
		f.Stop()
		return a.Bytes(), b.Bytes()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("scheduling diverged across identical runs: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// --- Windowed (pipelined) dispatch ---

// windowedDrainTime runs `senders` back-to-back single-frame lanes over one
// high-BDP member link at the given window and returns when the last of
// `perSender` frames per lane delivered.
func windowedDrainTime(t *testing.T, window, senders, perSender int) time.Duration {
	t.Helper()
	env := sim.NewEnv(1)
	f := New(env, Config{
		// ser = 1000B / 1e6B/s = 1ms, prop = 50ms: BDP of ~50 frames.
		Links:         []netlink.Config{{Propagation: 50 * time.Millisecond, BandwidthBps: 1e6}},
		Classes:       []ClassConfig{{Name: "bulk"}},
		WindowPerLink: window,
	})
	var last time.Duration
	for i := 0; i < senders; i++ {
		tp := f.Path("bulk", "t"+string(rune('0'+i)))
		env.Process("lane", func(p *sim.Proc) {
			for j := 0; j < perSender; j++ {
				tp.Transfer(p, 1000)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run(0)
	f.Stop()
	return last
}

func TestWindowedDispatchFillsHighBDPLink(t *testing.T) {
	// 8 lanes, 10 frames each: at window=1 the wire idles 50ms per frame
	// (~80 x 51ms serialized end-to-end); at window=8 eight frames overlap
	// their propagation and throughput approaches one frame per ser.
	w1 := windowedDrainTime(t, 1, 8, 10)
	w8 := windowedDrainTime(t, 8, 8, 10)
	if w8 >= w1/4 {
		t.Fatalf("window=8 drain %v, want < 1/4 of window=1 drain %v", w8, w1)
	}
}

func TestWindowedDispatchCountsPipelining(t *testing.T) {
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:         []netlink.Config{{Propagation: 50 * time.Millisecond, BandwidthBps: 1e6}},
		Classes:       []ClassConfig{{Name: "bulk"}},
		WindowPerLink: 4,
	})
	var wg int
	flood(env, f.Path("bulk", "t0"), 8, 1000, 300*time.Millisecond, &wg)
	env.Run(time.Second)
	f.Stop()
	st := f.LinkWindowStats(0)
	if st.Pipelined == 0 {
		t.Fatalf("no pipelined sends recorded: %+v", st)
	}
	if st.WindowStalls == 0 {
		t.Fatalf("8 backlogged lanes never filled a window of 4: %+v", st)
	}
	if f.links[0].MaxInFlight() != 4 {
		t.Fatalf("peak in-flight %d, want the window 4", f.links[0].MaxInFlight())
	}
	if f.links[0].OrderViolations() != 0 {
		t.Fatalf("delivery order violations: %d", f.links[0].OrderViolations())
	}

	// Window 1 is the same loop with nothing to overlap: n transfers queued at
	// once complete one full crossing apart, each frame fills the window.
	const n = 6
	env = sim.NewEnv(1)
	f = New(env, Config{
		Links:   []netlink.Config{{Propagation: 50 * time.Millisecond, BandwidthBps: 1e6}},
		Classes: []ClassConfig{{Name: "bulk"}},
	})
	tp := f.Path("bulk", "t0")
	var done []time.Duration
	for i := 0; i < n; i++ {
		env.Process("tx", func(p *sim.Proc) {
			tp.Transfer(p, 1000)
			done = append(done, p.Now())
		})
	}
	env.Run(0)
	f.Stop()
	if len(done) != n {
		t.Fatalf("completed %d transfers, want %d", len(done), n)
	}
	for k, at := range done {
		if want := time.Duration(k+1) * 51 * time.Millisecond; at != want {
			t.Fatalf("window=1 transfer %d completed at %v, want %v (serialization + propagation each)", k, at, want)
		}
	}
	if st := f.LinkWindowStats(0); st.Pipelined != 0 || st.WindowStalls != n {
		t.Fatalf("window=1 counters %+v, want 0 pipelined and %d stalls", st, n)
	}
	if got := f.links[0].MaxInFlight(); got != 1 {
		t.Fatalf("window=1 peak in-flight %d, want 1", got)
	}
}

func TestWindowedPartitionCutsAdmissionNotFlight(t *testing.T) {
	// Frames serialized before the cut deliver during the partition; frames
	// queued behind it wait for heal. Single member, so there is no other
	// dispatcher to fail over to.
	env := sim.NewEnv(1)
	f := New(env, Config{
		Links:         []netlink.Config{{Propagation: 100 * time.Millisecond, BandwidthBps: 1e6}},
		Classes:       []ClassConfig{{Name: "bulk"}},
		WindowPerLink: 8,
	})
	tp := f.Path("bulk", "t0")
	var done []time.Duration
	for i := 0; i < 4; i++ {
		env.Process("tx", func(p *sim.Proc) {
			tp.Transfer(p, 1000)
			done = append(done, p.Now())
		})
	}
	env.Process("late", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond) // enqueued while partitioned
		tp.Transfer(p, 1000)
		done = append(done, p.Now())
	})
	env.Process("cut", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // after the 4 frames serialized (4ms)
		f.links[0].Partition()
		p.Sleep(490 * time.Millisecond)
		f.links[0].Heal()
	})
	env.Run(0)
	f.Stop()
	if len(done) != 5 {
		t.Fatalf("completed %d transfers, want 5", len(done))
	}
	for i, at := range done[:4] {
		if at > 200*time.Millisecond {
			t.Fatalf("pre-cut frame %d delivered at %v: waited for heal", i, at)
		}
	}
	if done[4] < 500*time.Millisecond {
		t.Fatalf("queued-behind-cut frame delivered at %v, before heal at 500ms", done[4])
	}
}

// The jittered two-member schedule repeats to the nanosecond at every window:
// window 1 rides the same SendTo path as window 4, so its completion times —
// not only its byte totals — are pinned here.
func TestWindowedDeterministicScheduling(t *testing.T) {
	for _, window := range []int{1, 4} {
		run := func() []time.Duration {
			env := sim.NewEnv(42)
			f := New(env, Config{
				Links: []netlink.Config{
					{Propagation: 20 * time.Millisecond, BandwidthBps: 1e6, Jitter: 3 * time.Millisecond},
					{Propagation: 50 * time.Millisecond, BandwidthBps: 2e6, Jitter: time.Millisecond},
				},
				Classes:       []ClassConfig{{Name: "gold", Weight: 3}, {Name: "bulk"}},
				WindowPerLink: window,
			})
			var done []time.Duration
			for i, cl := range []string{"gold", "bulk", "gold", "bulk"} {
				tp := f.Path(cl, "t"+string(rune('0'+i)))
				env.Process("tx", func(p *sim.Proc) {
					for j := 0; j < 10; j++ {
						tp.Transfer(p, 1500)
						done = append(done, p.Now())
					}
				})
			}
			env.Run(0)
			f.Stop()
			return done
		}
		a, b := run(), run()
		if len(a) != len(b) || len(a) != 40 {
			t.Fatalf("window=%d: runs completed %d vs %d transfers", window, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("window=%d: completion %d differs: %v vs %v", window, i, a[i], b[i])
			}
		}
	}
}

func TestDefaultWindowIsStopAndWait(t *testing.T) {
	if cfg := (Config{}).withDefaults(); cfg.WindowPerLink != 1 {
		t.Fatalf("default window %d, want 1", cfg.WindowPerLink)
	}
}

// BenchmarkDispatch is the dispatcher's layer benchmark: eight closed-loop
// lanes keep one classed member link backlogged at windows 1 and 4; one op is
// one transfer admitted, picked, serialized and delivered.
func BenchmarkDispatch(b *testing.B) {
	for _, window := range []int{1, 4} {
		b.Run("window="+strconv.Itoa(window), func(b *testing.B) {
			env := sim.NewEnv(1)
			f := New(env, Config{
				Links:         []netlink.Config{{Propagation: 5 * time.Millisecond, BandwidthBps: 1e6}},
				Classes:       []ClassConfig{{Name: "bulk"}},
				WindowPerLink: window,
			})
			for i := 0; i < 8; i++ {
				tp := f.Path("bulk", "t"+strconv.Itoa(i))
				env.Process("lane", func(p *sim.Proc) {
					for {
						tp.Transfer(p, 1000)
					}
				})
			}
			advance := func(transfers int64) {
				for want := f.links[0].Transfers() + transfers; f.links[0].Transfers() < want; {
					env.Run(env.Now() + 10*time.Millisecond)
				}
			}
			advance(100) // warm up: queues, slab and the link's FIFO at working size
			b.ReportAllocs()
			b.ResetTimer()
			advance(int64(b.N))
		})
	}
}
