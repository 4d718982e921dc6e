// Package netlink models the inter-site network connecting the main and
// backup storage arrays: a full-duplex pipe with finite bandwidth,
// propagation delay, optional jitter, and operator-induced partitions. Loss
// comes only from a fault burst (SetFault, the chaos sweep's linkloss), and
// a lost frame is retransmitted. The slowdown and RPO experiments (E5, E7)
// are functions of this model only.
//
// A transfer has two physical phases: serialization, which occupies the
// wire (the link's one-slot sim.Resource), and propagation, during which
// the frame is in flight and occupies nothing. Transfer couples the caller
// to both phases; Send decouples them — the caller blocks only for
// admission + serialization and receives an event that fires at delivery —
// which is what lets a dispatcher keep a high bandwidth-delay-product pipe
// full with windowed in-flight frames (E18). A frame in flight is data, not
// a process: a record in the link's FIFO of serialized frames plus one kernel
// timer for its arrival. Deliveries are in order per link regardless of
// jitter or loss retries: an arrival delivers only the landed prefix of that
// FIFO, and each delivery is recorded against a per-link last-delivery
// watermark.
package netlink

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Config describes one direction of a link.
type Config struct {
	// Propagation is the one-way signal delay (half the RTT).
	Propagation time.Duration
	// BandwidthBps is the serialization rate in bytes per second. Zero or
	// negative means infinite bandwidth.
	BandwidthBps float64
	// Jitter adds a uniform random delay in [0, Jitter) to each transfer's
	// propagation.
	Jitter time.Duration
}

// minRetransmitTimeout floors the retransmit timeout. Without it a lossy link
// with Propagation 0 would retry lost transfers with zero delay, burning
// scheduler steps at a single simulated timestamp.
const minRetransmitTimeout = time.Millisecond

// Link is one direction of the inter-site connection. The two directions of
// a site pair are independent Links so request and ack traffic do not
// contend.
type Link struct {
	env        *sim.Env
	cfg        Config
	lossProb   float64       // probability a transmission attempt is lost (SetFault)
	rto        time.Duration // delay before a lost frame is retransmitted
	wire       *sim.Resource // serialization: one frame on the wire at a time
	partition  bool
	healed     *sim.Event
	sentBytes  int64
	transfers  int64
	retransmit int64
	busy       time.Duration // cumulative serialization time, for utilization

	// Async-send (pipelined) state. flights holds the frames serialized but
	// not yet delivered, oldest first; delivered counts the frames that have
	// left it, so the n-th frame ever sent sits at flights[n-delivered]. Only
	// the landed prefix is ever delivered, which is what makes per-link
	// delivery order independent of jitter and retransmission. deliveredEv
	// pulses after every delivery. lastDelivery is the watermark every
	// delivery is recorded against; violations counts deliveries that would
	// have gone backwards (zero by construction — exported so experiments can
	// prove order rather than assume it).
	flights      []flight
	delivered    int64
	deliveredEv  *sim.Event
	maxInFlight  int
	lastDelivery time.Duration
	violations   int64
}

// flight is one asynchronous frame between serialization and delivery.
type flight struct {
	size   int
	done   *sim.Event
	landed bool // arrived and not lost; delivered once every earlier frame is
}

// New returns a link in the connected state. Its retransmit timeout is 4x the
// propagation delay (a TCP-ish RTO), floored at minRetransmitTimeout.
func New(env *sim.Env, cfg Config) *Link {
	return &Link{
		env:         env,
		cfg:         cfg,
		rto:         max(4*cfg.Propagation, minRetransmitTimeout),
		wire:        env.NewResource(1),
		healed:      env.NewEvent(),
		deliveredEv: env.NewEvent(),
	}
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// serialization returns the time size bytes occupy the wire.
func (l *Link) serialization(size int) time.Duration {
	if l.cfg.BandwidthBps <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / l.cfg.BandwidthBps * float64(time.Second))
}

// serialize runs the first physical phase: wait out any partition (the
// model cuts admission, not the wire), queue for the wire, and occupy it
// for the serialization time.
func (l *Link) serialize(p *sim.Proc, size int) {
	for l.partition {
		p.Wait(l.healed)
	}
	l.wire.Acquire(p)
	ser := l.serialization(size)
	p.Sleep(ser)
	l.busy += ser
	l.wire.Release()
}

// flightTime draws the length of the second physical phase: the in-flight
// time to the far end (propagation plus any jitter draw). It occupies no
// resource.
func (l *Link) flightTime() time.Duration {
	prop := l.cfg.Propagation
	if l.cfg.Jitter > 0 {
		prop += time.Duration(l.env.Rand().Int63n(int64(l.cfg.Jitter)))
	}
	return prop
}

// lost draws whether this transmission attempt was dropped in flight.
func (l *Link) lost() bool {
	return l.lossProb > 0 && l.env.Rand().Float64() < l.lossProb
}

// Transfer moves size bytes across the link, blocking the calling process
// for queueing + serialization + propagation (+ jitter, loss retries, and
// partition outages). It returns the total time the transfer took.
func (l *Link) Transfer(p *sim.Proc, size int) time.Duration {
	start := p.Now()
	for {
		l.serialize(p, size)
		p.Sleep(l.flightTime())
		if l.lost() {
			l.retransmit++
			p.Sleep(l.rto)
			continue
		}
		l.sentBytes += int64(size)
		l.transfers++
		return p.Now() - start
	}
}

// Send begins an asynchronous transfer and returns the event that fires at
// delivery. See SendTo.
func (l *Link) Send(p *sim.Proc, size int) *sim.Event {
	done := l.env.NewEvent()
	l.SendTo(p, size, done)
	return done
}

// SendTo begins an asynchronous transfer whose completion triggers the
// caller-provided done event at delivery time. The calling process blocks
// only for the wire phase — partition outage, wire queueing, and
// serialization; the flight itself is a record in the link's FIFO and one
// kernel timer, no process. When SendTo returns, the frame is committed to
// the pipe: a partition cut after that point no longer stops it (admission
// is cut, not the wire). Delivery is in order per link — done never fires
// before the done of any frame serialized earlier, however jitter or
// retransmission land.
func (l *Link) SendTo(p *sim.Proc, size int, done *sim.Event) {
	l.serialize(p, size)
	l.flights = append(l.flights, flight{size: size, done: done})
	if n := len(l.flights); n > l.maxInFlight {
		l.maxInFlight = n
	}
	l.launch(l.delivered + int64(len(l.flights)) - 1)
}

// launch puts frame n on its way: one timer for its arrival.
func (l *Link) launch(n int64) {
	l.env.After(l.flightTime(), func() { l.arrive(n) })
}

// arrive ends one flight of frame n. A lost frame is retransmitted — the one
// step that can block (a fresh admission + serialization on the wire, so a
// retransmit during a partition waits for heal like any new frame) and so
// the only one that needs a process — and flies again as the same record.
// Otherwise the frame has landed, and the landed prefix of the FIFO is
// delivered in order: each frame's done first, then the link's delivery
// event, so a sender runs before a dispatcher its delivery unblocks.
func (l *Link) arrive(n int64) {
	if l.lost() {
		l.retransmit++
		l.env.Process("netlink-retransmit", func(p *sim.Proc) {
			p.Sleep(l.rto)
			l.serialize(p, l.flights[n-l.delivered].size)
			l.launch(n)
		})
		return
	}
	l.flights[n-l.delivered].landed = true
	now, k := l.env.Now(), 0
	for ; k < len(l.flights) && l.flights[k].landed; k++ {
		if now < l.lastDelivery {
			l.violations++
		}
		l.lastDelivery = now
		l.sentBytes += int64(l.flights[k].size)
		l.transfers++
		l.flights[k].done.Trigger()
	}
	if k == 0 {
		return // held behind an earlier frame still in flight
	}
	l.delivered += int64(k)
	rest := copy(l.flights, l.flights[k:])
	clear(l.flights[rest:])
	l.flights = l.flights[:rest]
	l.deliveredEv.Trigger()
}

// Partition severs the link: subsequent Transfer calls block until Heal.
// In-flight transfers complete (the model cuts admission, not the wire).
func (l *Link) Partition() {
	if l.partition {
		return
	}
	l.partition = true
	l.healed = l.env.NewEvent()
}

// Heal reconnects a partitioned link and wakes blocked senders.
func (l *Link) Heal() {
	if !l.partition {
		return
	}
	l.partition = false
	l.healed.Trigger()
}

// Partitioned reports whether the link is currently severed.
func (l *Link) Partitioned() bool { return l.partition }

// HealedEvent returns the event the next Heal triggers. It is meaningful
// while the link is partitioned: schedulers that route around a severed
// member (the inter-site fabric) park on it instead of polling.
func (l *Link) HealedEvent() *sim.Event { return l.healed }

// DeliveredEvent returns the event the link's next asynchronous delivery
// triggers — the counterpart of HealedEvent for a dispatcher whose in-flight
// window is full. Fetch it anew for every wait: the link re-arms it.
func (l *Link) DeliveredEvent() *sim.Event {
	l.deliveredEv = l.deliveredEv.Renew()
	return l.deliveredEv
}

// SentBytes returns the total payload bytes delivered.
func (l *Link) SentBytes() int64 { return l.sentBytes }

// Transfers returns the number of completed transfers.
func (l *Link) Transfers() int64 { return l.transfers }

// Retransmits returns the number of loss-induced retries.
func (l *Link) Retransmits() int64 { return l.retransmit }

// InFlight returns the number of asynchronous frames currently serialized
// but not yet delivered (the pipe fill).
func (l *Link) InFlight() int { return len(l.flights) }

// MaxInFlight returns the peak pipe fill observed over the link's lifetime.
func (l *Link) MaxInFlight() int { return l.maxInFlight }

// OrderViolations returns how many asynchronous deliveries landed before
// the link's watermark. Prefix delivery makes this zero by construction;
// it is exported so experiments prove in-order delivery instead of assuming
// it.
func (l *Link) OrderViolations() int64 { return l.violations }

// SetFault installs a transient loss/jitter burst on the link — the chaos
// sweep's linkloss fault. Zero values clear it. The change applies to draws
// made after the call: frames already past their loss draw are unaffected,
// frames still in flight retry under the new parameters.
func (l *Link) SetFault(lossProb float64, jitter time.Duration) {
	l.lossProb = lossProb
	l.cfg.Jitter = jitter
}

// Utilization returns the fraction of elapsed time the wire was busy
// serializing, in [0,1]. elapsed must be the simulation span of interest.
func (l *Link) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.busy) / float64(elapsed)
}

func (l *Link) String() string {
	return fmt.Sprintf("netlink{prop=%v bw=%.0fB/s sent=%dB}", l.cfg.Propagation, l.cfg.BandwidthBps, l.sentBytes)
}

// Pair is a full-duplex site interconnect: Forward carries main→backup
// journal traffic, Reverse carries acks and management traffic.
type Pair struct {
	Forward *Link
	Reverse *Link
}

// NewPair builds both directions from one symmetric config.
func NewPair(env *sim.Env, cfg Config) *Pair {
	return &Pair{Forward: New(env, cfg), Reverse: New(env, cfg)}
}

// RTT returns the configured round-trip time (both propagation delays,
// excluding serialization and jitter).
func (pr *Pair) RTT() time.Duration {
	return pr.Forward.cfg.Propagation + pr.Reverse.cfg.Propagation
}

// Partition severs both directions.
func (pr *Pair) Partition() {
	pr.Forward.Partition()
	pr.Reverse.Partition()
}

// Heal reconnects both directions.
func (pr *Pair) Heal() {
	pr.Forward.Heal()
	pr.Reverse.Heal()
}
