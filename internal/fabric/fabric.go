// Package fabric models the inter-site network as a fabric of multiple
// member links with a per-tenant admission layer in front of them. Where
// internal/netlink is one pipe, a Fabric is the whole interconnect: tenants
// obtain a Path bound to a QoS class, transfers fan in at the fabric
// ingress, a deficit-weighted round-robin scheduler (plus the token-bucket
// rate caps SetClassRate declares) arbitrates between classes, and per-link
// dispatchers spread admitted transfers over the member links. When a
// member link partitions, its dispatcher parks and the shared ingress
// queues drain through the surviving members — link failover without any
// consumer involvement.
//
// Consumers (the ADC drain, SDC mirror, failback resync) depend only on
// the small Path interface, which *netlink.Link also satisfies, so a raw
// link, a fabric path, and a test double are interchangeable.
package fabric

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// Path is the consumer-facing transfer interface: move size bytes to the
// other site, blocking the calling process for however long that takes.
// *netlink.Link and *TenantPath both satisfy it.
type Path interface {
	Transfer(p *sim.Proc, size int) time.Duration
}

var (
	_ Path = (*netlink.Link)(nil)
	_ Path = (*TenantPath)(nil)
)

// ClassConfig describes one QoS class at the fabric ingress.
type ClassConfig struct {
	// Name identifies the class to Fabric.Path lookups.
	Name string
	// Weight is the class's deficit-round-robin share (default 1). A class
	// with weight 4 gets 4x the bytes of a weight-1 class under contention.
	Weight int
	// Links restricts the class to the given member-link indexes (nil =
	// any member). A single-element slice pins the class to a dedicated
	// link.
	Links []int
}

// Config assembles a Fabric.
type Config struct {
	// Links configures the member links (at least one; exactly one with no
	// Classes keeps the fabric in passthrough mode, byte-for-byte identical
	// to a raw netlink.Link).
	Links []netlink.Config
	// Classes defines the QoS classes. Empty means one best-effort class
	// and no ingress scheduling.
	Classes []ClassConfig
	// WindowPerLink caps how many transfers one member link may have in
	// flight — serialized onto the wire but still propagating — at once.
	// It is a parameter of the one dispatcher loop, not a mode. The default
	// 1 is stop-and-wait: the wire idles for the full propagation delay
	// between frames. Raising it pipelines dispatch: a member picks and
	// serializes the next admitted request while up to WindowPerLink-1
	// earlier frames are still in flight, filling high
	// bandwidth-delay-product links (E18). Admission semantics (DRR, token
	// buckets, pins, partition parking) do not depend on it; deliveries stay
	// in order per link.
	WindowPerLink int
}

func (c Config) withDefaults() Config {
	if len(c.Links) == 0 {
		c.Links = []netlink.Config{{}}
	}
	if c.WindowPerLink <= 0 {
		c.WindowPerLink = 1
	}
	return c
}

// quantum is the DRR byte credit per weight unit per round.
const quantum = 64 << 10

// burst is the token-bucket depth of a rate-capped class. A transfer larger
// than the burst is admitted once the bucket is full and drives the balance
// negative, enforcing the long-run rate.
const burst = 256 << 10

// request is one transfer waiting at the fabric ingress.
type request struct {
	size       int
	enq        time.Duration
	queueDelay time.Duration // set at dispatch
	done       *sim.Event
	path       *TenantPath
	pin        int // member-link index this transfer must ride (-1 = any)
}

// class is the runtime state of one QoS class.
type class struct {
	cfg     ClassConfig
	queue   []*request
	head    int // pop index; queue is compacted when it empties
	deficit int // DRR byte credit

	rate       float64 // token-bucket rate cap in bytes/s (0 = uncapped), set by SetClassRate
	tokens     float64 // token-bucket balance (bytes); may go negative
	lastRefill time.Duration

	bytes     int64
	transfers int64
}

func (c *class) depth() int { return len(c.queue) - c.head }

// popAt removes and returns the request at backing-array index idx,
// preserving FIFO order of the remainder. idx == head reduces to pop.
func (c *class) popAt(idx int) *request {
	if idx == c.head {
		return c.pop()
	}
	r := c.queue[idx]
	copy(c.queue[idx:], c.queue[idx+1:])
	c.queue[len(c.queue)-1] = nil
	c.queue = c.queue[:len(c.queue)-1]
	return r
}

func (c *class) pop() *request {
	r := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	if c.head == len(c.queue) {
		c.queue = c.queue[:0]
		c.head = 0
	} else if c.head > 32 && c.head > len(c.queue)/2 {
		// Compact: a continuously backlogged queue never fully empties, so
		// without this the backing array grows with total (not peak) load.
		n := copy(c.queue, c.queue[c.head:])
		for i := n; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:n]
		c.head = 0
	}
	return r
}

func (c *class) allows(link int) bool {
	if len(c.cfg.Links) == 0 {
		return true
	}
	for _, li := range c.cfg.Links {
		if li == link {
			return true
		}
	}
	return false
}

// refill tops the token bucket up to the burst depth.
func (c *class) refill(now time.Duration) {
	if c.rate <= 0 {
		return
	}
	elapsed := now - c.lastRefill
	if elapsed <= 0 {
		return
	}
	c.lastRefill = now
	c.tokens = min(c.tokens+elapsed.Seconds()*c.rate, burst)
}

// gate reports whether the head transfer may pass the token bucket now,
// and if not, how long until it can.
func (c *class) gate(size int) (ok bool, wait time.Duration) {
	if c.rate <= 0 {
		return true, 0
	}
	need := min(float64(size), burst) // oversized transfers go when the bucket is full
	if c.tokens >= need {
		return true, 0
	}
	return false, time.Duration((need - c.tokens) / c.rate * float64(time.Second))
}

// ClassStats is a snapshot of one class's counters.
type ClassStats struct {
	Bytes     int64
	Transfers int64
}

// Fabric is a one-direction inter-site interconnect: member links behind a
// QoS-classed ingress. Build the reverse direction as a second Fabric (see
// Interconnect).
type Fabric struct {
	env     *sim.Env
	cfg     Config
	links   []*netlink.Link
	classes []*class
	byName  map[string]*class

	// scheduled is false for the trivial single-link, classless fabric:
	// paths then call the link directly (identical timing to a raw link,
	// no dispatcher processes, no per-transfer allocation).
	scheduled bool

	cursor   int  // DRR round-robin position (class in the service slot)
	credited bool // whether the cursor class received its quantum this visit
	queued   int  // requests waiting across all classes
	work     *sim.Event
	stopEv   *sim.Event
	stopped  bool

	// linkStats holds each member dispatcher's pipelining counters.
	linkStats []LinkWindowStats
}

// LinkWindowStats counts one member dispatcher's pipelining behavior: how
// often the window actually overlapped transfers (pipe fill) and how often
// it was the binding constraint. At a window of 1 nothing overlaps and every
// frame fills the window: Pipelined stays 0, WindowStalls counts the frames.
type LinkWindowStats struct {
	Pipelined    int64 // sends serialized while earlier frames were still in flight
	WindowStalls int64 // dispatcher waits forced by a full in-flight window
}

// LinkWindowStats returns a snapshot of member li's pipelining counters
// (zero for out-of-range members and on a passthrough fabric, which has no
// dispatcher).
func (f *Fabric) LinkWindowStats(li int) LinkWindowStats {
	if li < 0 || li >= len(f.linkStats) {
		return LinkWindowStats{}
	}
	return f.linkStats[li]
}

// New builds a fabric, creating its member links from cfg.Links.
func New(env *sim.Env, cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	links := make([]*netlink.Link, len(cfg.Links))
	for i, lc := range cfg.Links {
		links[i] = netlink.New(env, lc)
	}
	return newWithLinks(env, cfg, links, "")
}

// newWithLinks builds a fabric over already-constructed member links
// (cfg.Links is ignored); NewInterconnect uses it to keep the member links
// shared with the operator-facing netlink.Pair. dir, when set, names the
// direction in the dispatchers' process names, so the two directions'
// dispatchers of one member are told apart.
func newWithLinks(env *sim.Env, cfg Config, links []*netlink.Link, dir string) *Fabric {
	cfg = cfg.withDefaults()
	if len(links) == 0 {
		panic("fabric: no member links")
	}
	f := &Fabric{
		env:       env,
		cfg:       cfg,
		links:     links,
		byName:    make(map[string]*class),
		work:      env.NewEvent(),
		stopEv:    env.NewEvent(),
		linkStats: make([]LinkWindowStats, len(links)),
	}
	ccfgs := cfg.Classes
	if len(ccfgs) == 0 {
		ccfgs = []ClassConfig{{Name: "best-effort"}}
	}
	for _, cc := range ccfgs {
		if cc.Weight <= 0 {
			cc.Weight = 1
		}
		c := &class{cfg: cc}
		f.classes = append(f.classes, c)
		f.byName[cc.Name] = c
	}
	f.scheduled = len(links) > 1 || len(cfg.Classes) > 0
	if f.scheduled {
		name := "fabric-dispatch:"
		if dir != "" {
			name += dir + ":"
		}
		for i := range f.links {
			li := i
			env.Process(name+strconv.Itoa(li), func(p *sim.Proc) {
				f.dispatch(p, li)
			})
		}
	}
	return f
}

// Interconnect is the full-duplex fabric between two sites, the multi-link
// generalization of netlink.Pair.
type Interconnect struct {
	Forward *Fabric
	Reverse *Fabric
}

// Stop quiesces both directions' dispatchers.
func (ic *Interconnect) Stop() {
	ic.Forward.Stop()
	ic.Reverse.Stop()
}

// NewInterconnect builds both directions over pre-built member links (one
// forward and one reverse link per member). Both directions share the same
// class/scheduling configuration.
func NewInterconnect(env *sim.Env, cfg Config, fwd, rev []*netlink.Link) *Interconnect {
	return &Interconnect{
		Forward: newWithLinks(env, cfg, fwd, "forward"),
		Reverse: newWithLinks(env, cfg, rev, "reverse"),
	}
}

// Path returns a new tenant path through the fabric bound to the named QoS
// class. An empty or unknown name binds to the first (default) class. Each
// call returns a distinct path with its own counters, so per-tenant bytes
// and queueing delay are measurable independently.
func (f *Fabric) Path(classname, owner string) *TenantPath {
	c, ok := f.byName[classname]
	if !ok {
		c = f.classes[0]
	}
	return &TenantPath{fabric: f, class: c, classname: classname, owner: owner, pin: -1}
}

// PathOn returns a tenant path pinned to member link `link`: its transfers
// are admitted under the class like any other, but only that member's
// dispatcher carries them — the placement-policy hook. The pin is advisory
// under faults: while the pinned member is partitioned, any member may
// carry the path's transfers, preserving link failover. An out-of-range
// link falls back to an unpinned path.
func (f *Fabric) PathOn(classname, owner string, link int) *TenantPath {
	tp := f.Path(classname, owner)
	if link >= 0 && link < len(f.links) {
		tp.pin = link
	}
	return tp
}

// SetClassRate declares the named class's token-bucket rate cap in bytes
// per second — the autopilot's admission effector; every class starts
// uncapped. 0 removes the cap (pure weighted sharing). A cap starts from the
// bucket's balance and refills at the new rate from now: a class capped for
// the first time starts with an empty bucket, and the balance a class had
// when its cap was removed carries over to its next cap (uncapped transfers
// do not spend tokens). Returns false for an unknown class.
func (f *Fabric) SetClassRate(name string, bps float64) bool {
	c, ok := f.byName[name]
	if !ok {
		return false
	}
	c.refill(f.env.Now())
	c.rate = bps
	if bps > 0 {
		c.lastRefill = f.env.Now()
	}
	// A raised (or removed) cap may unblock token-gated dispatchers parked
	// on a stale wait: wake them to re-pick.
	if f.scheduled && f.queued > 0 && !f.work.Triggered() {
		f.work.Trigger()
	}
	return true
}

// Links exposes the member links (for partition/heal chaos and per-link
// accounting; member order matches Config.Links).
func (f *Fabric) Links() []*netlink.Link { return f.links }

// Now is the fabric's virtual clock — placement policies use it to age
// their own recent-placement memory.
func (f *Fabric) Now() time.Duration { return f.env.Now() }

// ClassStats returns a snapshot of the named class's counters.
func (f *Fabric) ClassStats(name string) ClassStats {
	c, ok := f.byName[name]
	if !ok {
		return ClassStats{}
	}
	return ClassStats{Bytes: c.bytes, Transfers: c.transfers}
}

// Stop parks the dispatchers after their in-flight transfers. Queued
// requests are abandoned (their callers stay blocked), mirroring a site
// split; tests and harnesses use it to quiesce a fabric.
func (f *Fabric) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.stopEv.Trigger()
}

func (f *Fabric) String() string {
	return fmt.Sprintf("fabric{links=%d classes=%d queued=%d}", len(f.links), len(f.classes), f.queued)
}

// idle returns the event the next enqueue (or rate change) triggers, for a
// dispatcher about to park with nothing it may carry: f.work, re-armed if
// an earlier arrival already fired it.
func (f *Fabric) idle() *sim.Event {
	f.work = f.work.Renew()
	return f.work
}

// dispatch is the per-link scheduler loop, the same at every WindowPerLink:
// pick the next admitted request under DRR + token buckets and serialize it
// onto this member link, then pick again while up to WindowPerLink frames
// are still propagating (at a window of 1: once the frame has landed). The
// request's done event fires at delivery, in serialization order — the link
// delivers in order — and the link's own in-flight count is the window
// state; class byte/transfer counters advance at serialization, when the
// bytes are committed to the pipe. A partitioned member parks here until
// healed, which is exactly the failover: the shared ingress queues keep
// draining through the other members' dispatchers, while frames already
// serialized stay in flight and deliver.
func (f *Fabric) dispatch(p *sim.Proc, li int) {
	link := f.links[li]
	for {
		if f.stopped {
			return
		}
		if link.Partitioned() {
			if p.WaitAny(link.HealedEvent(), f.stopEv) == 1 {
				return
			}
			continue
		}
		if link.InFlight() >= f.cfg.WindowPerLink {
			// Pipe full: block until a frame lands.
			f.linkStats[li].WindowStalls++
			if p.WaitAny(link.DeliveredEvent(), f.stopEv) == 1 {
				return
			}
			continue
		}
		req, wait := f.pick(li, p.Now())
		if req == nil {
			if wait > 0 {
				// Every eligible class is token-blocked: wait until the
				// earliest bucket refills enough — but wake early if new
				// work arrives, which may belong to an uncapped class.
				p.WaitTimeout(f.idle(), wait)
				continue
			}
			// Nothing queued for this member: park until new work arrives.
			if p.WaitAny(f.idle(), f.stopEv) == 1 {
				return
			}
			continue
		}
		req.queueDelay = p.Now() - req.enq
		if link.InFlight() > 0 {
			f.linkStats[li].Pipelined++
		}
		link.SendTo(p, req.size, req.done)
		c := req.path.class
		c.bytes += int64(req.size)
		c.transfers++
	}
}

// advance moves the DRR service slot to the next class.
func (f *Fabric) advance() {
	f.cursor = (f.cursor + 1) % len(f.classes)
	f.credited = false
}

// eligibleIndex returns the backing-array index of the first queued
// transfer that member li may carry: unpinned, pinned to li, or pinned to
// a partitioned member (whose traffic any healthy member covers). It
// scans past the head so one transfer pinned to a busy member cannot
// head-of-line block the rest of the class — including other tenants —
// on every other member. Returns -1 when nothing qualifies.
func (f *Fabric) eligibleIndex(c *class, li int) int {
	for i := c.head; i < len(c.queue); i++ {
		pin := c.queue[i].pin
		if pin < 0 || pin == li || f.links[pin].Partitioned() {
			return i
		}
	}
	return -1
}

// pick runs one deficit-weighted round-robin selection over the classes
// eligible for member link li. The cursor class is credited one quantum x
// weight on arrival and keeps the service slot until its deficit or queue
// runs out, so a backlogged class is served in weight-proportional byte
// bursts. Within a class, the oldest transfer this member may carry is
// chosen (pins are honored without blocking unpinned traffic behind
// them). pick returns the chosen request, or (nil, wait>0) when every
// queued class is token-blocked for at least wait, or (nil, 0) when
// nothing is queued that this member may carry.
func (f *Fabric) pick(li int, now time.Duration) (*request, time.Duration) {
	if f.queued == 0 {
		return nil, 0
	}
	n := len(f.classes)
	minWait := time.Duration(-1)
	barren := 0 // consecutive visits that could not make progress
	for barren < n {
		c := f.classes[f.cursor]
		if c.depth() == 0 || !c.allows(li) {
			f.advance()
			barren++
			continue
		}
		idx := f.eligibleIndex(c, li)
		if idx < 0 {
			// Every queued transfer in this class is placement-pinned to
			// some other healthy member: leave them for those dispatchers.
			f.advance()
			barren++
			continue
		}
		next := c.queue[idx]
		c.refill(now)
		if ok, wait := c.gate(next.size); !ok {
			if minWait < 0 || wait < minWait {
				minWait = wait
			}
			f.advance()
			barren++
			continue
		}
		if !f.credited {
			c.deficit += quantum * c.cfg.Weight
			f.credited = true
		}
		if c.deficit < next.size {
			// Not enough credit yet: the deficit carries over and grows on
			// the next visit, so oversized transfers still go through.
			// Accumulating credit is progress — reset the barren count.
			barren = 0
			f.advance()
			continue
		}
		req := c.popAt(idx)
		c.deficit -= req.size
		if c.rate > 0 {
			c.tokens -= float64(req.size)
		}
		if c.depth() == 0 {
			c.deficit = 0 // an emptied class forfeits leftover credit
			f.advance()
		} else if c.deficit <= 0 {
			f.advance() // burst exhausted; next class's turn
		}
		f.queued--
		return req, 0
	}
	if minWait < 0 {
		return nil, 0 // nothing queued that this member may carry: park
	}
	if minWait == 0 {
		minWait = time.Microsecond // defensive: never spin at one instant
	}
	return nil, minWait
}

// TenantPath is one tenant's handle into the fabric: transfers are admitted
// under the bound QoS class, and the path keeps that tenant's counters.
type TenantPath struct {
	fabric    *Fabric
	class     *class
	classname string // as the path was asked for; "" or unknown = the default class
	owner     string
	pin       int // member link this path's transfers ride (-1 = any)

	bytes         int64
	transfers     int64
	queueDelay    time.Duration
	maxQueueDelay time.Duration
	totalTime     time.Duration
}

// Transfer moves size bytes through the fabric, blocking the caller for
// admission (queueing, scheduling, rate caps) plus the member-link transfer.
func (tp *TenantPath) Transfer(p *sim.Proc, size int) time.Duration {
	f := tp.fabric
	start := p.Now()
	if !f.scheduled {
		took := f.links[0].Transfer(p, size)
		tp.class.bytes += int64(size)
		tp.class.transfers++
		tp.record(size, took, 0)
		return took
	}
	req := &request{size: size, enq: p.Now(), done: f.env.NewEvent(), path: tp, pin: tp.pin}
	tp.class.queue = append(tp.class.queue, req)
	f.queued++
	if !f.work.Triggered() {
		f.work.Trigger()
	}
	p.Wait(req.done)
	took := p.Now() - start
	tp.record(size, took, req.queueDelay)
	return took
}

func (tp *TenantPath) record(size int, took, queueDelay time.Duration) {
	tp.bytes += int64(size)
	tp.transfers++
	tp.totalTime += took
	tp.queueDelay += queueDelay
	if queueDelay > tp.maxQueueDelay {
		tp.maxQueueDelay = queueDelay
	}
}

// Class returns the QoS class name the path was made with, so a path made
// with it rides the same class ("" and unknown names ride the default).
func (tp *TenantPath) Class() string { return tp.classname }

// Bytes returns the payload bytes this path has moved.
func (tp *TenantPath) Bytes() int64 { return tp.bytes }

// Transfers returns the number of completed transfers.
func (tp *TenantPath) Transfers() int64 { return tp.transfers }

// DropRetries returns 0: the ingress queues are unbounded, so no admission
// is ever dropped. It stays only because benchmark/ reads it, and goes with
// the benchmark unfreeze (ROADMAP item 1).
func (*TenantPath) DropRetries() int64 { return 0 }

// MeanQueueDelay returns the mean ingress queueing delay per transfer
// (zero on a passthrough fabric, where the link's own FIFO is the queue).
func (tp *TenantPath) MeanQueueDelay() time.Duration {
	if tp.transfers == 0 {
		return 0
	}
	return tp.queueDelay / time.Duration(tp.transfers)
}

// MaxQueueDelay returns the worst ingress queueing delay seen.
func (tp *TenantPath) MaxQueueDelay() time.Duration { return tp.maxQueueDelay }

// MeanTransferTime returns the mean end-to-end time per transfer —
// admission plus link crossing — the drain-latency figure E12 compares
// across QoS policies.
func (tp *TenantPath) MeanTransferTime() time.Duration {
	if tp.transfers == 0 {
		return 0
	}
	return tp.totalTime / time.Duration(tp.transfers)
}

func (tp *TenantPath) String() string {
	return fmt.Sprintf("fabricPath{%s class=%s sent=%dB}", tp.owner, tp.class.cfg.Name, tp.bytes)
}
