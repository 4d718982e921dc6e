package netlink

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTransferLatencyIsSerializationPlusPropagation(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 10 * time.Millisecond, BandwidthBps: 1000})
	var took time.Duration
	env.Process("tx", func(p *sim.Proc) {
		took = l.Transfer(p, 500) // 500B at 1000B/s = 500ms + 10ms prop
	})
	env.Run(0)
	want := 510 * time.Millisecond
	if took != want {
		t.Fatalf("transfer took %v, want %v", took, want)
	}
	if l.SentBytes() != 500 || l.Transfers() != 1 {
		t.Fatalf("stats: bytes=%d transfers=%d", l.SentBytes(), l.Transfers())
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 3 * time.Millisecond})
	var took time.Duration
	env.Process("tx", func(p *sim.Proc) { took = l.Transfer(p, 1<<30) })
	env.Run(0)
	if took != 3*time.Millisecond {
		t.Fatalf("took %v, want pure propagation 3ms", took)
	}
}

func TestBandwidthContentionSerializes(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 0, BandwidthBps: 1000})
	var done []time.Duration
	for i := 0; i < 3; i++ {
		env.Process("tx", func(p *sim.Proc) {
			l.Transfer(p, 1000) // 1s serialization each
			done = append(done, p.Now())
		})
	}
	env.Run(0)
	if len(done) != 3 {
		t.Fatalf("completed %d transfers", len(done))
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
}

func TestPropagationPipelines(t *testing.T) {
	// With long propagation and short serialization, back-to-back transfers
	// overlap in flight: second completion is one serialization after the
	// first, not one full latency after.
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 100 * time.Millisecond, BandwidthBps: 1e6})
	var done []time.Duration
	for i := 0; i < 2; i++ {
		env.Process("tx", func(p *sim.Proc) {
			l.Transfer(p, 1000) // 1ms serialization
			done = append(done, p.Now())
		})
	}
	env.Run(0)
	if done[0] != 101*time.Millisecond || done[1] != 102*time.Millisecond {
		t.Fatalf("completions %v, want [101ms 102ms]", done)
	}
}

func TestPartitionBlocksUntilHeal(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: time.Millisecond})
	l.Partition()
	var took time.Duration
	env.Process("tx", func(p *sim.Proc) { took = l.Transfer(p, 10) })
	env.Process("op", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		l.Heal()
	})
	env.Run(0)
	if took != 501*time.Millisecond {
		t.Fatalf("took %v, want 501ms (500ms outage + 1ms prop)", took)
	}
}

func TestPartitionIdempotent(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{})
	l.Partition()
	l.Partition()
	if !l.Partitioned() {
		t.Fatal("not partitioned")
	}
	l.Heal()
	l.Heal()
	if l.Partitioned() {
		t.Fatal("still partitioned")
	}
}

func TestLossCausesRetransmit(t *testing.T) {
	env := sim.NewEnv(7)
	l := New(env, Config{Propagation: time.Millisecond})
	l.SetFault(0.5, 0)
	env.Process("tx", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			l.Transfer(p, 10)
		}
	})
	env.Run(0)
	if l.Retransmits() == 0 {
		t.Fatal("expected some retransmits at 50% loss")
	}
	if l.Transfers() != 200 {
		t.Fatalf("transfers = %d, want 200 (reliable delivery)", l.Transfers())
	}
}

func TestUtilization(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{BandwidthBps: 1000})
	env.Process("tx", func(p *sim.Proc) {
		l.Transfer(p, 500) // busy 500ms
		p.Sleep(500 * time.Millisecond)
	})
	end := env.Run(0)
	if u := l.Utilization(end); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if l.Utilization(0) != 0 {
		t.Fatal("utilization with zero elapsed should be 0")
	}
}

func TestRetransmitTimeoutFloorWithZeroPropagation(t *testing.T) {
	// Regression: with Propagation 0 under loss the RTO (4x propagation)
	// used to be 0, so every lost transfer retried at the same simulated
	// instant. The floor guarantees retries consume time.
	env := sim.NewEnv(3)
	l := New(env, Config{})
	l.SetFault(0.5, 0)
	env.Process("tx", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			l.Transfer(p, 10)
		}
	})
	end := env.Run(0)
	if l.Retransmits() == 0 {
		t.Fatal("no retransmits at 50% loss — scenario degenerate")
	}
	if end == 0 {
		t.Fatalf("retransmits consumed no virtual time (%d retries at t=0)", l.Retransmits())
	}
	if want := time.Duration(l.Retransmits()) * minRetransmitTimeout; end != want {
		t.Fatalf("elapsed %v, want retransmits x floor = %v", end, want)
	}
}

func TestPartitionWhileRetransmitting(t *testing.T) {
	// A transfer loses its first attempt, and the link partitions during
	// the RTO wait (4 x 5ms propagation). The retry must block until heal,
	// then deliver — the transfer survives the outage instead of slipping
	// through it.
	//
	// Seed note: this test needs the first loss draw to come up lost; it
	// scans a few seeds for that and would fail loudly if none qualifies.
	var l *Link
	var env *sim.Env
	found := false
	for seed := int64(1); seed < 20 && !found; seed++ {
		env = sim.NewEnv(seed)
		probe := sim.NewEnv(seed)
		if probe.Rand().Float64() < 0.5 {
			l = New(env, Config{Propagation: 5 * time.Millisecond})
			l.SetFault(0.5, 0)
			found = true
		}
	}
	if !found {
		t.Fatal("no seed under 20 loses the first attempt")
	}
	var took time.Duration
	env.Process("tx", func(p *sim.Proc) { took = l.Transfer(p, 10) })
	env.Process("op", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // during the 20ms RTO wait
		l.Partition()
		p.Sleep(490 * time.Millisecond)
		l.Heal()
	})
	env.Run(0)
	if l.Retransmits() == 0 {
		t.Fatal("first attempt was not lost — scenario degenerate")
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want reliable delivery of 1", l.Transfers())
	}
	// Timeline: attempt at 0 (5ms prop, lost), RTO until 25ms but the link
	// partitioned at 10ms, so the retry waits for heal at 500ms; any later
	// losses only add whole RTOs. The completion must be after the heal.
	if took <= 500*time.Millisecond {
		t.Fatalf("transfer completed at %v, before the 500ms heal", took)
	}
}

func TestUtilizationAcrossPartitionHealCycles(t *testing.T) {
	// Wire-busy accounting must count serialization only: an outage in the
	// middle of the run adds elapsed time but no busy time.
	env := sim.NewEnv(1)
	l := New(env, Config{BandwidthBps: 1000})
	env.Process("a", func(p *sim.Proc) { l.Transfer(p, 500) }) // busy 0..500ms
	env.Process("op", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		l.Partition()
		p.Sleep(500 * time.Millisecond) // outage 500ms..1s
		l.Heal()
	})
	env.Process("b", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		l.Transfer(p, 500) // blocked through the outage, busy 1s..1.5s
	})
	end := env.Run(0)
	if end != 1500*time.Millisecond {
		t.Fatalf("run ended at %v, want 1.5s", end)
	}
	if u := l.Utilization(end); u < 0.66 || u > 0.67 {
		t.Fatalf("utilization = %v, want 2/3 (1s busy over 1.5s; outage not busy)", u)
	}
	if l.SentBytes() != 1000 || l.Transfers() != 2 {
		t.Fatalf("stats: bytes=%d transfers=%d", l.SentBytes(), l.Transfers())
	}
}

func TestPairRTTAndPartition(t *testing.T) {
	env := sim.NewEnv(1)
	pr := NewPair(env, Config{Propagation: 5 * time.Millisecond})
	if pr.RTT() != 10*time.Millisecond {
		t.Fatalf("rtt = %v", pr.RTT())
	}
	pr.Partition()
	if !pr.Forward.Partitioned() || !pr.Reverse.Partitioned() {
		t.Fatal("pair partition incomplete")
	}
	pr.Heal()
	if pr.Forward.Partitioned() || pr.Reverse.Partitioned() {
		t.Fatal("pair heal incomplete")
	}
}

func TestDeterministicJitter(t *testing.T) {
	run := func() time.Duration {
		env := sim.NewEnv(42)
		l := New(env, Config{Propagation: time.Millisecond, Jitter: time.Millisecond})
		var total time.Duration
		env.Process("tx", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				total += l.Transfer(p, 1)
			}
		})
		env.Run(0)
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered runs diverged: %v vs %v", a, b)
	}
}

// --- Asynchronous (pipelined) send ---

func TestSendBlocksOnlyForSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	// 1s serialization, 10s propagation: a huge bandwidth-delay product.
	l := New(env, Config{Propagation: 10 * time.Second, BandwidthBps: 1000})
	var sendReturned, delivered time.Duration
	env.Process("tx", func(p *sim.Proc) {
		done := l.Send(p, 1000)
		sendReturned = p.Now()
		p.Wait(done)
		delivered = p.Now()
	})
	env.Run(0)
	if sendReturned != time.Second {
		t.Fatalf("Send returned at %v, want 1s (serialization only)", sendReturned)
	}
	if delivered != 11*time.Second {
		t.Fatalf("delivered at %v, want 11s", delivered)
	}
	if l.Transfers() != 1 || l.SentBytes() != 1000 {
		t.Fatalf("stats: transfers=%d bytes=%d", l.Transfers(), l.SentBytes())
	}
	if l.InFlight() != 0 || l.MaxInFlight() != 1 {
		t.Fatalf("inflight=%d max=%d, want 0/1", l.InFlight(), l.MaxInFlight())
	}
}

func TestSendFillsThePipe(t *testing.T) {
	env := sim.NewEnv(1)
	// ser=1s, prop=10s: window w should deliver frame i at i*ser + prop.
	l := New(env, Config{Propagation: 10 * time.Second, BandwidthBps: 1000})
	const frames = 4
	var deliveredAt []time.Duration
	env.Process("tx", func(p *sim.Proc) {
		var evs []*sim.Event
		for i := 0; i < frames; i++ {
			evs = append(evs, l.Send(p, 1000))
		}
		for _, ev := range evs {
			p.Wait(ev)
			deliveredAt = append(deliveredAt, p.Now())
		}
	})
	env.Run(0)
	if len(deliveredAt) != frames {
		t.Fatalf("delivered %d frames, want %d", len(deliveredAt), frames)
	}
	for i, at := range deliveredAt {
		want := time.Duration(i+1)*time.Second + 10*time.Second
		if at != want {
			t.Fatalf("frame %d delivered at %v, want %v (pipelined)", i, at, want)
		}
	}
	if l.MaxInFlight() != frames {
		t.Fatalf("max in flight %d, want %d", l.MaxInFlight(), frames)
	}
	if l.OrderViolations() != 0 {
		t.Fatalf("order violations: %d", l.OrderViolations())
	}
}

func TestSendDeliversInOrderUnderJitter(t *testing.T) {
	// With jitter comparable to propagation, a later frame's raw arrival
	// can easily precede an earlier frame's — the delivery chain must hold
	// completions back so the receive stream stays in serialization order.
	env := sim.NewEnv(7)
	l := New(env, Config{Propagation: 5 * time.Millisecond, Jitter: 20 * time.Millisecond, BandwidthBps: 1e6})
	const frames = 200
	order := make([]int, 0, frames)
	env.Process("tx", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			i := i
			ev := l.Send(p, 1000)
			env.Process("watch", func(wp *sim.Proc) {
				wp.Wait(ev)
				order = append(order, i)
			})
		}
	})
	env.Run(0)
	if len(order) != frames {
		t.Fatalf("delivered %d frames, want %d", len(order), frames)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order[%d] = frame %d: reordered", i, got)
		}
	}
	if l.OrderViolations() != 0 {
		t.Fatalf("watermark violations: %d", l.OrderViolations())
	}
	if l.lastDelivery == 0 {
		t.Fatalf("watermark never advanced")
	}
}

func TestSendRetransmitsLossInsideFlight(t *testing.T) {
	env := sim.NewEnv(3)
	l := New(env, Config{Propagation: time.Millisecond, BandwidthBps: 1e6})
	l.SetFault(0.5, 0)
	const frames = 50
	delivered := 0
	env.Process("tx", func(p *sim.Proc) {
		var evs []*sim.Event
		for i := 0; i < frames; i++ {
			evs = append(evs, l.Send(p, 1000))
		}
		for _, ev := range evs {
			p.Wait(ev)
			delivered++
		}
	})
	env.Run(0)
	if delivered != frames {
		t.Fatalf("delivered %d/%d frames under loss", delivered, frames)
	}
	if l.Retransmits() == 0 {
		t.Fatalf("no retransmits at loss 0.5 over %d frames", frames)
	}
	if l.OrderViolations() != 0 {
		t.Fatalf("order violations under loss: %d", l.OrderViolations())
	}
}

func TestSendPartitionCutsAdmissionNotFlight(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 100 * time.Millisecond, BandwidthBps: 1e6})
	var firstAt, secondAt time.Duration
	env.Process("tx", func(p *sim.Proc) {
		first := l.Send(p, 1000) // serialized at ~1ms, in flight until ~101ms
		second := l.Send(p, 1000)
		p.Wait(first)
		firstAt = p.Now()
		p.Wait(second)
		secondAt = p.Now()
	})
	env.Process("cut", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // both frames serialized, both in flight
		l.Partition()
		p.Sleep(500 * time.Millisecond)
		l.Heal()
	})
	env.Run(0)
	if firstAt == 0 || secondAt == 0 {
		t.Fatalf("in-flight frames did not deliver across the partition (first=%v second=%v)", firstAt, secondAt)
	}
	if firstAt > 200*time.Millisecond || secondAt > 200*time.Millisecond {
		t.Fatalf("in-flight delivery waited for heal: first=%v second=%v", firstAt, secondAt)
	}

	// A frame sent while partitioned parks at admission until heal.
	env2 := sim.NewEnv(1)
	l2 := New(env2, Config{Propagation: time.Millisecond, BandwidthBps: 1e6})
	l2.Partition()
	var parkedAt time.Duration
	env2.Process("tx", func(p *sim.Proc) {
		ev := l2.Send(p, 1000)
		p.Wait(ev)
		parkedAt = p.Now()
	})
	env2.Process("heal", func(p *sim.Proc) {
		p.Sleep(300 * time.Millisecond)
		l2.Heal()
	})
	env2.Run(0)
	if parkedAt < 300*time.Millisecond {
		t.Fatalf("partitioned Send delivered at %v, before heal", parkedAt)
	}
}

func TestSetFaultAppliesAndClears(t *testing.T) {
	env := sim.NewEnv(5)
	l := New(env, Config{Propagation: time.Millisecond, BandwidthBps: 1e6})
	env.Process("tx", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			l.Transfer(p, 1000)
		}
		if l.Retransmits() != 0 {
			t.Errorf("retransmits on a clean link: %d", l.Retransmits())
		}
		l.SetFault(0.8, 2*time.Millisecond)
		for i := 0; i < 50; i++ {
			l.Transfer(p, 1000)
		}
		if l.Retransmits() == 0 {
			t.Errorf("no retransmits under SetFault(0.8, ...)")
		}
		mid := l.Retransmits()
		l.SetFault(0, 0)
		for i := 0; i < 50; i++ {
			l.Transfer(p, 1000)
		}
		if l.Retransmits() != mid {
			t.Errorf("retransmits after clearing fault: %d -> %d", mid, l.Retransmits())
		}
	})
	env.Run(0)
}
