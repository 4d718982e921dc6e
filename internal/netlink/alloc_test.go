package netlink

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// A frame in flight is a record in the link's FIFO and one kernel timer.
// These tests pin that where it can rot: a delivered frame costs no process
// and at most two objects, and the only process the async path ever starts
// is a lost frame's retransmission.

const sendWindow = 4

// sendLoop keeps sendWindow frames in flight on l for ever: the shape a
// windowed dispatcher gives the link, with the FIFO never empty.
func sendLoop(env *sim.Env, l *Link) {
	env.Process("tx", func(p *sim.Proc) {
		var win [sendWindow]*sim.Event
		for i := 0; ; i++ {
			if ev := win[i%sendWindow]; ev != nil {
				p.Wait(ev)
			}
			win[i%sendWindow] = l.Send(p, 1000)
		}
	})
}

// advance runs env until l has delivered frames more transfers.
func advance(env *sim.Env, l *Link, frames int64) {
	for want := l.Transfers() + frames; l.Transfers() < want; {
		env.Run(env.Now() + 10*time.Millisecond)
	}
}

func TestLosslessSendStartsNoProcess(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, BandwidthBps: 1e6})
	sendLoop(env, l)
	peak := 0
	env.OnAdvance(func(_, _ time.Duration) { peak = max(peak, env.Procs()) })
	advance(env, l, 1000)
	if peak != 1 {
		t.Fatalf("%d processes alive at once over %d frames, want the sender alone", peak, l.Transfers())
	}
	if l.MaxInFlight() != sendWindow || l.OrderViolations() != 0 {
		t.Fatalf("max in flight %d, order violations %d", l.MaxInFlight(), l.OrderViolations())
	}
}

func TestSendAllocationBudget(t *testing.T) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 5 * time.Millisecond, BandwidthBps: 1e6})
	sendLoop(env, l)
	advance(env, l, 100) // warm up: FIFO, slab and heap at their working size
	const runs, framesPerRun = 10, 100
	before := l.Transfers()
	perRun := testing.AllocsPerRun(runs, func() { advance(env, l, framesPerRun) })
	perFrame := perRun * (runs + 1) / float64(l.Transfers()-before)
	// Send's own done event and the arrival timer's closure.
	if perFrame > 2 {
		t.Fatalf("a delivered frame allocates %.2f objects, want at most 2", perFrame)
	}
}

// One frame at a time, so retransmission processes never overlap and each
// one shows as a rising edge of the live-process count between instants.
func TestOnlyRetransmissionStartsAProcess(t *testing.T) {
	env := sim.NewEnv(3)
	l := New(env, Config{Propagation: time.Millisecond, BandwidthBps: 1e6})
	l.SetFault(0.5, 0)
	const frames = 200
	env.Process("tx", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			p.Wait(l.Send(p, 1000))
		}
	})
	var started int64
	last := 1
	env.OnAdvance(func(_, _ time.Duration) {
		n := env.Procs()
		if n > last {
			started += int64(n - last)
		}
		last = n
	})
	env.Run(0)
	if l.Transfers() != frames || l.Retransmits() == 0 {
		t.Fatalf("delivered %d/%d frames with %d retransmits", l.Transfers(), frames, l.Retransmits())
	}
	if started != l.Retransmits() {
		t.Fatalf("%d processes started for %d retransmits", started, l.Retransmits())
	}
	if env.Procs() != 0 || l.InFlight() != 0 {
		t.Fatalf("%d processes and %d frames left after the run", env.Procs(), l.InFlight())
	}
}

// BenchmarkLinkSend: one op is one frame serialized, flown and delivered in
// order with sendWindow frames in flight.
func BenchmarkLinkSend(b *testing.B) {
	env := sim.NewEnv(1)
	l := New(env, Config{Propagation: 5 * time.Millisecond, BandwidthBps: 1e6})
	sendLoop(env, l)
	advance(env, l, 100) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	advance(env, l, int64(b.N))
}
