package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// E18 scenario scale. One write-heavy tenant sharded across 8 drain lanes,
// all funneling into a SINGLE geo member link with a 50ms propagation delay
// and a fat serialization rate: one 64-record batch occupies the wire for
// ~4ms and then flies for 50ms, a bandwidth-delay product of ~12 frames.
// At window=1 — stop-and-wait — the wire idles >92% of the time; a larger
// window fills the pipe with the lanes' concurrent batches. Array latencies are dialed down and the writes are cheap so the
// geo link — not the primary array — is always the bottleneck being
// measured.
const (
	e18Namespace = "pipe-bench"
	e18Volumes   = 16
	e18Shards    = 8 // drain lanes; each keeps at most one batch in flight
)

// e18GeoLink is the lone member link: a high-BDP geo hop.
var e18GeoLink = netlink.Config{Propagation: 50 * time.Millisecond, BandwidthBps: 6.4e7}

// e18Outcome is what one window size's two runs measure over the same
// schedule.
type e18Outcome struct {
	// Throughput run: all writes issued, then drained to empty.
	drain        time.Duration
	bytes        int64
	maxInFlight  int   // peak frames propagating concurrently on the geo link
	pipelined    int64 // sends serialized while earlier frames were in flight
	windowStalls int64 // dispatcher waits with the window full
	orderOK      bool  // per-link delivery order monotone (zero watermark violations)

	// Partition run: the geo link is cut mid-window, healed, then the pair
	// is split for real.
	inFlightAtCut      int   // frames propagating the instant the partition hit
	deliveredDuringCut int64 // deliveries while partitioned: inFlightAtCut, +1 if a frame was mid-serialization
	cut                int   // K: writes present in the recovered image
	exact              bool  // image is the exact ack-order prefix {1..K}
}

// E18PipeFill measures propagation-pipelined fabric dispatch: the same
// sharded drain schedule over one 50ms geo link at increasing per-link
// in-flight windows. Each window runs twice — once clean to measure drain
// throughput, once cutting the geo link mid-window (frames already
// serialized must deliver during the partition, frames queued behind it
// must not), healing it, and then splitting the pair to verify the
// recovered image is still an exact ack-order prefix. The shape the ROADMAP
// pipelining item needs: near-linear throughput gain with the window until
// the lanes' outstanding batches (or serialization) saturate, with in-order
// delivery proven, not assumed.
func E18PipeFill(seed int64, windows []int, writes int) (*Table, error) {
	if len(windows) == 0 {
		windows = []int{1, 4, 16}
	}
	if writes <= 0 {
		writes = 6144
	}
	t := NewTable("E18: propagation-pipelined dispatch — drain throughput vs per-link in-flight window over a 50ms geo link",
		"window", "drain time", "MB/s", "speedup", "max in-flight", "pipelined", "stalls", "order ok",
		"in-flight@cut", "delivered@cut", "failover cut", "lost", "consistent")
	for _, w := range windows {
		var o e18Outcome
		if err := e18Run(seed, w, writes, false, &o); err != nil {
			return nil, fmt.Errorf("E18 window=%d throughput: %w", w, err)
		}
		if err := e18Run(seed, w, writes, true, &o); err != nil {
			return nil, fmt.Errorf("E18 window=%d partition: %w", w, err)
		}
		t.AddRow(w, o.drain, mbps(o.bytes, o.drain), speedup(0), o.maxInFlight, o.pipelined, o.windowStalls, o.orderOK,
			o.inFlightAtCut, o.deliveredDuringCut, o.cut, writes-o.cut, o.exact)
	}
	// A row's speedup is known once the 1-row is measured.
	t.fillSpeedups()
	t.AddNote("shape: throughput grows near-linearly with the window until the %d lanes' outstanding batches saturate; "+
		"every frame committed to the wire before the cut delivers during the partition (delivered@cut = in-flight@cut, +1 when a frame was mid-serialization), "+
		"frames queued behind the cut wait for heal, and every failover image is an exact ack-order prefix", e18Shards)
	return t, nil
}

// e18Run drives one run at one window size. partition=false measures clean
// drain throughput; partition=true cuts the geo link mid-window, heals it,
// then fails the tenant over and checks the consistency cut.
func e18Run(seed int64, window, writes int, partition bool, o *e18Outcome) error {
	sys := core.NewSystem(core.Config{
		Seed: seed,
		Fabric: fabric.Config{
			Links: []netlink.Config{e18GeoLink},
			// A class forces scheduled (dispatcher-driven) mode even with a
			// single member — a classless single link would be passthrough
			// and bypass the window entirely.
			Classes:       []fabric.ClassConfig{{Name: "bulk"}},
			WindowPerLink: window,
		},
		// Cheap primary writes: the experiment measures the link pipeline,
		// so the array must never be the bottleneck.
		Storage:      storage.Config{WriteLatency: 5 * time.Microsecond, JournalLatency: time.Microsecond, Parallelism: 16},
		VolumeBlocks: int64(writes/e18Volumes + 2),
	})
	link := sys.Fabric.Forward.Links()[0]

	// The partition run paces its writes across the drain so epochs seal and
	// commit progressively — a burst-everything writer collapses the run
	// into one tiny epoch plus one giant one, leaving no meaningful prefix to
	// cut. The throughput run stays unpaced: there the drain alone is the
	// measurement.
	var pace time.Duration
	if partition {
		pace = 100 * time.Microsecond
	}
	var err error
	o.cut, o.exact, err = runStamped(sys, e18Namespace, e18Volumes, e18Shards, writes, pace, partition,
		func(p *sim.Proc, g *replication.Group, start time.Duration) {
			o.drain, o.bytes, o.maxInFlight = p.Now()-start, g.AppliedBytes(), link.MaxInFlight()
			st := sys.Fabric.Forward.LinkWindowStats(0)
			o.pipelined, o.windowStalls = st.Pipelined, st.WindowStalls
			o.orderOK = link.OrderViolations() == 0
		},
		func(p *sim.Proc) {
			// Writes are cheap and finish early; the drain is the long phase.
			// Cut well into it so a meaningful prefix has committed, but
			// before even the fastest window finishes.
			p.Sleep(300 * time.Millisecond)
			o.inFlightAtCut = link.InFlight()
			before := link.Transfers()
			link.Partition()
			// Long enough for every in-flight frame (≤ 50ms of residual
			// propagation, no loss on this link) to land.
			p.Sleep(60 * time.Millisecond)
			o.deliveredDuringCut = link.Transfers() - before
			link.Heal()
			p.Sleep(30 * time.Millisecond) // drain resumes over the healed link
		})
	return err
}
