// Package replication implements the paper's remote-copy engines:
//
//   - Group — asynchronous data copy (ADC, §III-A1): drain lanes move a
//     consistency group's journal records across the inter-site link in
//     batches and apply them at the backup array in the group's ack order.
//     One group over all of a tenant's volumes preserves cross-volume
//     ordering; with one Group per volume it is not preserved (the
//     configuration experiment E6 shows collapses).
//   - SyncVolume — synchronous data copy (SDC, §V baseline): every write
//     waits for the remote apply and the returning ack, putting the link RTT
//     on the business-processing path.
package replication

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// ErrStopped is returned by operations on a stopped replication group.
var ErrStopped = errors.New("replication: group stopped")

// Config tunes the ADC drain.
type Config struct {
	// BatchMax is the largest number of journal records moved per link
	// transfer (default 64). E9 sweeps it.
	BatchMax int
}

func (c Config) withDefaults() Config {
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return c
}

// Group replicates one consistency-group journal to target volumes over one
// drain lane per journal shard, each lane on its own fabric path, so a
// tenant's drain throughput scales with its shard count. The lane count
// selects the commit rule — nothing else:
//
// Lane commit (one settled lane). The single shard's sequence already is the
// group's cross-volume ack order, so every transferred batch is an exact
// prefix extension: the lane applies it itself — transfer, delta-set apply,
// install — and no coordinator exists. This is the paper's configuration.
//
// Barrier commit (more than one lane, or a reshard window still open):
//
//  1. every record carries the group epoch open at ack time; sealing an
//     epoch is atomic, so "all records with epoch <= E" is an exact prefix
//     of the group's cross-volume ack order;
//  2. lanes transfer records lane-locally and STAGE them at the target —
//     staged records are not yet part of the backup image;
//  3. a coordinator seals epochs whenever there is backlog and, once every
//     lane has staged its share of the sealed epoch (the barrier), commits
//     the whole epoch: the target applies the delta set and exposes it
//     atomically. The backup image therefore always sits exactly on an
//     epoch boundary = a consistent cross-volume cut, no matter when a
//     disaster splits the pair.
//
// Within an epoch, cross-shard apply order is relaxed (that is the point —
// lanes run concurrently); per volume, order is exact because placement
// pins each volume to one shard. Either way the backup image is an exact
// ack-order prefix at every instant.
type Group struct {
	env     *sim.Env
	name    string
	journal *storage.ShardedJournal
	target  *storage.Array
	cfg     Config

	lanes    []*drainLane // active lanes, index-aligned with journal shards
	retiring []*drainLane // lanes of retired shards, draining their last staged records

	stopEv     *sim.Event
	stopped    bool
	failedOver bool
	failedBack bool
	started    bool
	committed  *sim.Event // pulsed per epoch commit and by an idle committing lane; CatchUp waits on it

	// Barrier state, created when the engine first runs more than one lane.
	// coordinating is the commit rule in force: a coordinator process exists
	// and lanes stage for it instead of committing their own batches.
	coordinating bool
	progress     *sim.Event   // pulsed by lanes as they stage; the barrier wait
	reconfigured *sim.Event   // pulsed by Reshard; wakes the coordinator onto the new lane set
	idleWait     []*sim.Event // coordinator scratch for its idle wait

	// Reshard state. While resharding is set, one volume's staged records
	// can be split across two lanes (its old shard's lane staged pre-barrier
	// records, its new shard's lane stages post-barrier ones), so epoch
	// commits apply in global ack (GlobalSeq) order instead of lane order.
	// The window closes — and retiring lanes are reaped — once every record
	// of epochs <= the migration barrier is committed at the target.
	resharding       bool
	migrationBarrier int64
	reshardSettled   *sim.Event // re-armed per reshard; AwaitReshard waits on it

	committedEpoch int64
	epochCommits   int64
	appliedRecords int64
	appliedBytes   int64
	lastAppliedAck time.Duration
	lost           []storage.Record // abandoned mid-transfer or mid-apply by Stop

	// What install has applied, kept for verification as running facts, not
	// records: the highest GlobalSeq and Epoch, and the installs out of
	// per-volume ack order against each twin's seq, the last GlobalSeq
	// installed for that member.
	maxAppliedSeq   int64
	maxAppliedEpoch int64
	orderBreaks     int64
	twins           []twin // indexed by Record.Member; resolved by the first install

	// Telemetry (set by Instrument; nil handles no-op when disabled).
	tel          *telemetry.Registry
	tenant       string
	epochLatency *metrics.Histogram
	reshardSpan  telemetry.Span
	laneGen      map[int]int // lane index -> registrations (probe-key generations)
}

// twin is one member's backup-site volume and the last GlobalSeq installed
// into it.
type twin struct {
	vol *storage.Volume
	seq int64
}

// drainLane is one shard's drain state. Each lane owns its batch scratch
// and staging buffer — nothing is shared across lanes, so concurrent lanes
// never alias each other's records.
type drainLane struct {
	idx     int
	journal *storage.Journal
	path    fabric.Path

	batch  []storage.Record // drain scratch, reused across batches; batch[:inflight] is in flight
	staged []storage.Record // transferred, awaiting an epoch commit

	inflight      int           // records taken from the shard and not yet staged or applied
	inflightEpoch int64         // epoch of the first in-flight record
	inflightAck   time.Duration // ack time of the first in-flight record

	// retire is triggered by the coordinator once a retiring lane has
	// nothing left to drain, stage, or commit; the lane process exits on it.
	// Lane 0 survives every reshard and has none.
	retire *sim.Event
	probed bool // lane probes registered
}

// NewGroup wires a consistency group's journal to target volumes. paths
// carries one inter-site transfer path per journal shard (lane k drains
// shard k over paths[k]) — a raw *netlink.Link or a QoS-classed
// fabric.TenantPath are both fine. A member's backup-site twin carries the
// member's own volume ID, and every twin must exist on the target array.
func NewGroup(env *sim.Env, name string, journal *storage.ShardedJournal, target *storage.Array,
	paths []fabric.Path, cfg Config) (*Group, error) {
	if len(paths) != journal.ShardCount() {
		return nil, fmt.Errorf("replication: %s: %d paths for %d shards", name, len(paths), journal.ShardCount())
	}
	for _, id := range journal.Members() {
		if _, err := target.Volume(id); err != nil {
			return nil, fmt.Errorf("replication: %s: twin of member %s: %w", name, id, err)
		}
	}
	g := &Group{
		env:       env,
		name:      name,
		journal:   journal,
		target:    target,
		cfg:       cfg.withDefaults(),
		lanes:     make([]*drainLane, len(paths)),
		stopEv:    env.NewEvent(),
		committed: env.NewEvent(),
	}
	for i, shard := range journal.Shards() {
		g.lanes[i] = g.newLane(i, shard, paths[i])
	}
	if len(paths) > 1 {
		g.openBarrier()
	}
	return g, nil
}

func (g *Group) newLane(idx int, shard *storage.Journal, path fabric.Path) *drainLane {
	l := &drainLane{idx: idx, journal: shard, path: path}
	if idx > 0 {
		l.retire = g.env.NewEvent()
	}
	if g.coordinating {
		// Lanes added by a live reshard register their probes here, so their
		// timelines start at the migration instant.
		g.instrumentLane(l)
	}
	return l
}

// openBarrier puts the barrier commit rule in force: from here on lanes
// stage and an epoch coordinator commits, until a shrink back to one lane
// settles and the coordinator hands the rule back (see coordinate).
func (g *Group) openBarrier() {
	g.coordinating = true
	if g.progress == nil {
		g.progress = g.env.NewEvent()
		g.reconfigured = g.env.NewEvent()
	}
	g.instrumentBarrier()
	if g.started {
		g.env.Process("adc-epoch:"+g.name, g.coordinate)
	}
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Journal returns the source consistency-group journal being drained.
func (g *Group) Journal() *storage.ShardedJournal { return g.journal }

// JournalID returns the group journal's identifier.
func (g *Group) JournalID() string { return g.journal.ID() }

// Members returns the consistency group's volumes in attach order; callers
// must not modify the slice.
func (g *Group) Members() []storage.VolumeID { return g.journal.Members() }

// Lanes returns the number of active drain lanes (= journal shards);
// retiring lanes mid-reshard are excluded.
func (g *Group) Lanes() int { return len(g.lanes) }

// Paths returns the path each active lane drains over, in lane order.
func (g *Group) Paths() []fabric.Path {
	out := make([]fabric.Path, len(g.lanes))
	for i, l := range g.lanes {
		out[i] = l.path
	}
	return out
}

// InitialCopy performs the ADC initialization bulk copy (§III-A1): every
// written block of every source volume is transferred — over the volume's
// own lane path — and applied to its target. Writes that land during the
// copy flow through the journal and are applied afterwards by the drain, so
// the target converges to a consistent image. source must be the array
// owning the journal volumes.
func (g *Group) InitialCopy(p *sim.Proc, source *storage.Array) error {
	for _, src := range g.journal.Members() {
		sv, err := source.Volume(src)
		if err != nil {
			return err
		}
		if err := g.bulkCopy(p, sv, sv.WrittenBlocks()); err != nil {
			return err
		}
	}
	return nil
}

// bulkCopy streams the given blocks of one source volume to its target over
// the volume's lane path in BatchMax-block batches: one link transfer and
// one delta-set apply per batch instead of one scheduling event per block.
// The initial copy, resync and failback share it. Nothing is copied: the
// target adopts the block borrowed from the source, and each side keeps it
// when the other overwrites.
func (g *Group) bulkCopy(p *sim.Proc, sv *storage.Volume, blocks []int64) error {
	tv, err := g.target.Volume(sv.ID())
	if err != nil {
		return err
	}
	path := g.lanes[g.journal.ShardIndexOf(sv.ID())].path
	for start := 0; start < len(blocks); start += g.cfg.BatchMax {
		chunk := blocks[start:min(start+g.cfg.BatchMax, len(blocks))]
		path.Transfer(p, len(chunk)*(sv.BlockSize()+64))
		g.target.ApplyDeltaSet(p, len(chunk))
		var err error
		p.Do(func() {
			for _, b := range chunk {
				if err = tv.InstallDelta(b, resyncBlock(sv, b)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// resyncBlock is what bulkCopy — initial copy, resync or failback — ships for
// block b of src: the block borrowed from src, which the target adopts, or —
// when src never wrote b, or a restore erased it since it was tracked — the
// block of zeroes it reads as.
func resyncBlock(src *storage.Volume, b int64) []byte {
	if blk := src.Peek(b); blk != nil {
		return blk
	}
	return make([]byte, src.BlockSize())
}

// Start launches one drain process per lane, plus the epoch coordinator
// when the barrier rule is in force.
func (g *Group) Start() {
	if g.started {
		return
	}
	g.started = true
	for _, l := range g.lanes {
		g.startLane(l)
	}
	if g.coordinating {
		g.env.Process("adc-epoch:"+g.name, g.coordinate)
	}
}

func (g *Group) startLane(l *drainLane) {
	g.env.Process("adc-lane:"+g.name+":s"+strconv.Itoa(l.idx), func(p *sim.Proc) { g.drainLane(p, l) })
}

// Stop halts the lanes and the coordinator. Pending journal records stay at
// the main site; a batch mid-transfer or mid-apply, and staged records that
// never made it into a committed epoch, are lost at the split — exactly the
// data a disaster would lose (RPO).
func (g *Group) Stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.stopEv.Trigger()
}

// Stopped reports whether Stop was called.
func (g *Group) Stopped() bool { return g.stopped }

// drainLane moves one shard's records across the lane's path, then either
// stages them for the next epoch commit (barrier rule) or applies them
// itself (lane commit). An exiting lane drops its batch scratch and, when
// its shard is empty, the shard's backlog storage: a parked tenant keeps no
// idle room for records.
func (g *Group) drainLane(p *sim.Proc, l *drainLane) {
	defer func() {
		l.batch = nil
		l.journal.ReleaseIdle()
	}()
	for {
		// A stop lands here — a batch boundary — leaving the backlog pending
		// at the source (the RPO exposure), not lost in flight.
		if g.stopped {
			return
		}
		// The batch scratch is reused across iterations; records that
		// outlive the batch (staged, lost) are copied out by value.
		recs := l.journal.TryTakeInto(l.batch, g.cfg.BatchMax)
		if recs == nil {
			if g.coordinating {
				g.progress.Trigger()
			} else {
				g.committed.Trigger()
			}
			woke := 0
			if l.retire == nil {
				woke = p.WaitAny(l.journal.NotEmpty(), g.stopEv)
			} else {
				woke = p.WaitAny(l.journal.NotEmpty(), g.stopEv, l.retire)
			}
			if woke != 0 {
				return // stopped, or retired: staged records were committed, shard is empty
			}
			continue
		}
		l.batch = recs
		l.inflight = len(recs)
		l.inflightEpoch = recs[0].Epoch
		l.inflightAck = recs[0].AckedAt
		l.path.Transfer(p, len(recs)*l.journal.RecordBytes())
		if g.stopped {
			// Split mid-transfer: the batch never reaches the backup image —
			// lost, exactly as a disaster leaves it.
			g.lost = append(g.lost, recs...)
			l.inflight = 0
			return
		}
		if g.coordinating {
			l.staged = append(l.staged, recs...)
			l.inflight = 0
			g.progress.Trigger()
			continue
		}
		// Lane commit. The batch is the commit unit — its media time is
		// charged in one delta-set apply and the records then install at zero
		// cost in sequence order — so loss is batch-atomic and the target
		// always holds an exact prefix of batch boundaries.
		if len(l.staged) > 0 {
			// The tail a departing coordinator left to this lane (see
			// coordinate): older than the batch, so it commits ahead of it.
			recs = append(l.staged, recs...)
			l.staged, l.batch = nil, recs
			l.inflight = len(recs)
			l.inflightEpoch = recs[0].Epoch
			l.inflightAck = recs[0].AckedAt
		}
		g.target.ApplyDeltaSet(p, len(recs))
		if g.stopped {
			g.lost = append(g.lost, recs...)
			l.inflight = 0
			return
		}
		p.Do(func() {
			for _, r := range recs {
				g.install(r)
			}
			l.inflight = 0
		})
		if g.coordinating {
			// A reshard opened the barrier while this batch was applying; its
			// coordinator is waiting for the lane to come clear.
			g.progress.Trigger()
		}
	}
}

// stagedThrough returns the highest epoch the lane has fully staged: no
// pending or in-flight record of that epoch (or older) remains. An idle
// empty lane has staged everything appended so far.
func (g *Group) stagedThrough(l *drainLane) int64 {
	through := g.journal.Epoch()
	if e, ok := l.journal.OldestPendingEpoch(); ok && e-1 < through {
		through = e - 1
	}
	if l.inflight > 0 && l.inflightEpoch-1 < through {
		through = l.inflightEpoch - 1
	}
	return through
}

// commitLanes returns every lane that can hold uncommitted records: the
// active set plus lanes retiring after a shrink reshard.
func (g *Group) commitLanes() []*drainLane {
	if len(g.retiring) == 0 {
		return g.lanes
	}
	out := make([]*drainLane, 0, len(g.lanes)+len(g.retiring))
	out = append(out, g.lanes...)
	return append(out, g.retiring...)
}

func (g *Group) allStagedThrough(epoch int64) bool {
	for _, l := range g.commitLanes() {
		if g.stagedThrough(l) < epoch {
			return false
		}
	}
	return true
}

// coordinate runs the epoch cycle: seal whenever there is backlog, wait for
// every lane to stage its share of the sealed epoch (the barrier), commit
// the epoch atomically at the target, repeat. After a reshard it also
// settles the migration window and reaps retiring lanes once their last
// staged records are committed.
//
// Once a shrink to one lane has settled there is nothing left for a barrier
// to order, and the coordinator returns the commit rule to the lane and
// exits. It does so between commits, so the two never apply concurrently;
// staged records it leaves behind go out with the lane's next batch, which
// is why it only leaves them to a lane that has one coming.
func (g *Group) coordinate(p *sim.Proc) {
	for {
		if g.stopped {
			return
		}
		g.settleReshard()
		if l := g.lanes[0]; len(g.lanes) == 1 && !g.Resharding() &&
			(len(l.staged) == 0 || l.inflight > 0 || l.journal.Pending() > 0) {
			g.coordinating = false
			return
		}
		if g.Backlog() == 0 {
			evs := g.idleWait[:0]
			for _, l := range g.lanes {
				evs = append(evs, l.journal.NotEmpty())
			}
			g.reconfigured = g.reconfigured.Renew()
			evs = append(evs, g.reconfigured, g.stopEv)
			g.idleWait = evs
			if p.WaitAny(evs...) == len(evs)-1 {
				return
			}
			continue
		}
		sealed := g.journal.SealEpoch()
		sealedAt := p.Now()
		sp := g.tel.StartSpan("epoch", "epoch-drain", g.tenant)
		for !g.allStagedThrough(sealed) {
			g.progress = g.progress.Renew()
			if p.WaitAny(g.progress, g.stopEv) == 1 {
				return
			}
			if g.stopped {
				return
			}
		}
		g.commitEpoch(p, sealed)
		sp.End()
		g.epochLatency.Record(p.Now() - sealedAt)
	}
}

// commitEpoch applies every staged record of epochs <= sealed to the target
// and exposes them atomically. The backup array works through the delta set
// with its controller parallelism, then installs the cut in one instant —
// which is why a failover can never observe a half-applied epoch.
//
// In steady state the apply iterates lane by lane: placement pins a volume
// to one shard, so per-volume order is each lane's staged order, and each
// staged list is epoch-monotone (it mirrors the shard backlog's order) —
// the "epoch > sealed" prefix scan is exact. During a reshard window
// NEITHER holds: a migrated volume's records can sit on two lanes, and
// migration can stage sealed-epoch records BEHIND open-epoch ones on a
// surviving lane. So the window's commits scan every staged record (no
// prefix break — a short scan would commit an epoch with holes and break
// the failover prefix) and apply in global ack (GlobalSeq) order.
func (g *Group) commitEpoch(p *sim.Proc, sealed int64) {
	lanes := g.commitLanes()
	var count int
	for _, l := range lanes {
		for _, r := range l.staged {
			if r.Epoch > sealed {
				if !g.resharding {
					break
				}
				continue
			}
			count++
		}
	}
	if count == 0 {
		return
	}
	g.target.ApplyDeltaSet(p, count)
	if g.stopped {
		// Split mid-commit: the epoch never becomes visible; its staged
		// records are part of UnappliedRecords.
		return
	}
	if g.resharding {
		merged := make([]storage.Record, 0, count)
		for _, l := range lanes {
			kept := l.staged[:0]
			for _, r := range l.staged {
				if r.Epoch <= sealed {
					merged = append(merged, r)
				} else {
					kept = append(kept, r)
				}
			}
			clear(l.staged[len(kept):])
			l.staged = kept
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].GlobalSeq < merged[j].GlobalSeq })
		p.Do(func() {
			for _, r := range merged {
				g.install(r)
			}
		})
	} else {
		for _, l := range lanes {
			n := 0
			p.Do(func() {
				for _, r := range l.staged {
					if r.Epoch > sealed {
						break
					}
					g.install(r)
					n++
				}
			})
			rest := copy(l.staged, l.staged[n:])
			clear(l.staged[rest:])
			l.staged = l.staged[:rest]
		}
	}
	g.committedEpoch = sealed
	g.epochCommits++
	g.committed.Trigger()
}

// install writes one committed record into its target volume and folds it
// into the running facts. Order is checked per source volume, by GlobalSeq:
// a reshard moves a volume's records to another shard with their old Seq,
// and its window commits in GlobalSeq order across lanes, so neither a
// shard's Seq nor a lane's order is the order a volume must apply in.
func (g *Group) install(r storage.Record) {
	if g.twins == nil {
		g.twins = make([]twin, len(g.journal.Members()))
		for m, id := range g.journal.Members() {
			tv, err := g.target.Volume(id)
			if err != nil {
				panic(fmt.Sprintf("replication %s: target vanished: %v", g.name, err))
			}
			g.twins[m].vol = tv
		}
	}
	tw := &g.twins[r.Member]
	tv := tw.vol
	if err := tv.InstallDelta(int64(r.Block), r.Data); err != nil {
		panic(fmt.Sprintf("replication %s: apply: %v", g.name, err))
	}
	if r.AckedAt > g.lastAppliedAck {
		g.lastAppliedAck = r.AckedAt
	}
	g.appliedRecords++
	g.appliedBytes += int64(tv.BlockSize())
	g.maxAppliedSeq = max(g.maxAppliedSeq, r.GlobalSeq)
	g.maxAppliedEpoch = max(g.maxAppliedEpoch, r.Epoch)
	if r.GlobalSeq <= tw.seq {
		g.orderBreaks++
	}
	tw.seq = r.GlobalSeq
}

// Backlog returns the number of journal records not yet applied at the
// target: pending in a journal, in flight on a lane, or staged awaiting a
// commit — on active and retiring lanes alike.
func (g *Group) Backlog() int {
	var n int
	for _, l := range g.commitLanes() {
		n += l.journal.Pending() + l.inflight + len(l.staged)
	}
	return n
}

// CatchUp blocks until every journaled record is applied at the target, or
// the group stops. It reports whether the group fully caught up.
func (g *Group) CatchUp(p *sim.Proc) bool {
	for g.Backlog() > 0 {
		if g.stopped {
			return false
		}
		g.committed = g.committed.Renew()
		if p.WaitAny(g.committed, g.stopEv) == 1 {
			return false
		}
	}
	return true
}

// RPO returns the recovery-point objective exposure at virtual time now: how
// far the backup image lags the newest main-site ack. Zero when fully
// caught up. Each commit rule keeps its own published definition: under
// lane commit the oldest pending ack, else the last applied ack while a
// batch is in flight; under the barrier the oldest pending, in-flight or
// staged ack.
func (g *Group) RPO(now time.Duration) time.Duration {
	if !g.coordinating {
		l := g.lanes[0]
		if oldest, ok := l.journal.OldestPendingAck(); ok {
			return now - oldest
		}
		if l.inflight > 0 {
			return now - g.lastAppliedAck
		}
		return 0
	}
	var oldest time.Duration
	found := false
	note := func(t time.Duration) {
		if !found || t < oldest {
			oldest, found = t, true
		}
	}
	for _, l := range g.commitLanes() {
		if t, ok := l.journal.OldestPendingAck(); ok {
			note(t)
		}
		if len(l.staged) > 0 {
			note(l.staged[0].AckedAt)
		}
		if l.inflight > 0 {
			note(l.inflightAck)
		}
	}
	if !found {
		return 0
	}
	return now - oldest
}

// CommittedEpoch returns the highest epoch a barrier commit has exposed at
// the target. A lane committing for itself applies the open epoch's records
// batch by batch and never moves it.
func (g *Group) CommittedEpoch() int64 { return g.committedEpoch }

// EpochCommits returns how many consistency cuts the coordinator declared
// (none while a single lane commits for itself).
func (g *Group) EpochCommits() int64 { return g.epochCommits }

// AppliedRecords returns the lifetime count of applied records.
func (g *Group) AppliedRecords() int64 { return g.appliedRecords }

// AppliedBytes returns the lifetime payload bytes applied.
func (g *Group) AppliedBytes() int64 { return g.appliedBytes }

// AppliedHighWater returns the highest GlobalSeq and, separately, the
// highest Epoch of any record applied at the target (zero before the first).
// invariants.CheckEpochBoundary holds them against the unapplied records and
// the committed epoch.
func (g *Group) AppliedHighWater() (globalSeq, epoch int64) {
	return g.maxAppliedSeq, g.maxAppliedEpoch
}

// OrderBreaks returns how many installs arrived out of per-volume ack order:
// a record whose GlobalSeq is not above the last one installed for its source
// volume. Both commit rules keep it at zero.
func (g *Group) OrderBreaks() int64 { return g.orderBreaks }

// UnappliedRecords returns every record acknowledged at the source but
// never applied at the target: journal backlogs, staged-but-uncommitted
// records, batches abandoned at a split, and the batch a lane still has on
// the wire or in apply (it joins lost only when that returns and notices the
// stop). Failback derives the source-side divergence from it.
func (g *Group) UnappliedRecords() []storage.Record {
	out := append([]storage.Record(nil), g.lost...)
	for _, l := range g.commitLanes() {
		out = append(out, l.staged...)
		out = append(out, l.batch[:l.inflight]...)
		out = append(out, l.journal.PendingRecords()...)
	}
	return out
}

// resyncPasses is how many delta copies Resync makes before it gives up.
const resyncPasses = 10

// Resync recovers a suspended pair: it drains the journal's consistent
// remainder, then copies the tracked delta blocks — each volume over its own
// lane path — until a full pass finds nothing new, and finally re-enables
// journaling. During the block-level copy the target is NOT point-in-time
// consistent (which is why operators snapshot the target before resyncing —
// exactly the demo's snapshot group). resyncPasses bounds convergence under
// continuous write load.
func (g *Group) Resync(p *sim.Proc, source *storage.Array) error {
	if !g.journal.Overflowed() {
		return nil
	}
	g.CatchUp(p)
	for pass := 0; pass < resyncPasses; pass++ {
		copied := false
		for _, src := range g.journal.Members() {
			sv, err := source.Volume(src)
			if err != nil {
				return err
			}
			blocks := sv.ChangedBlocks()
			if len(blocks) == 0 {
				continue
			}
			// Reset tracking so writes landing during this copy are
			// caught by the next pass.
			sv.StartChangeTracking()
			if err := g.bulkCopy(p, sv, blocks); err != nil {
				return fmt.Errorf("replication %s: resync %s: %w", g.name, src, err)
			}
			copied = true
		}
		if !copied {
			// Quiet pass: nothing dirtied since the last reset. No time
			// passes between this check and ClearOverflow, so no write
			// can slip between them.
			g.journal.ClearOverflow()
			return nil
		}
	}
	return fmt.Errorf("replication %s: resync did not converge in %d passes", g.name, resyncPasses)
}

// Reshard transitions the running engine to len(paths) drain lanes with an
// epoch-bounded live migration — the replication half of a dynamic reshard:
//
//  1. the journal seals the open epoch as the migration barrier and
//     re-places volumes (migrating only those whose stable-hash assignment
//     changes, their pending records moving with them);
//  2. lanes whose shard survives keep draining untouched; lanes for added
//     shards start immediately on their own paths; lanes of retired shards
//     stop taking (their journals are empty after migration) and only live
//     on to commit what they had staged or in flight;
//  3. until every pre-barrier record is committed, epoch commits apply in
//     global ack order (see commitEpoch) — so the backup image remains an
//     exact ack-order prefix throughout, and a failover raced into the
//     migration window recovers either entirely pre- or entirely
//     post-barrier state;
//  4. once the barrier commits, retiring lanes are reaped; their shard
//     journals left the group at step 1 and go with them.
//
// A single committing lane grows the same way: the barrier rule takes force
// at the call (the batch the lane is applying, if any, completes first and
// the coordinator's barrier wait covers it). Resharding to the current lane
// count is a no-op (zero migration, no barrier). A second reshard is
// refused while one is still settling.
func (g *Group) Reshard(p *sim.Proc, paths []fabric.Path) (storage.ReshardStats, error) {
	var zero storage.ReshardStats
	if g.stopped {
		return zero, fmt.Errorf("replication: %s: %w", g.name, ErrStopped)
	}
	if g.failedOver {
		return zero, fmt.Errorf("replication: %s: cannot reshard a failed-over group", g.name)
	}
	if len(paths) < 1 {
		return zero, fmt.Errorf("replication: %s: reshard to %d lanes", g.name, len(paths))
	}
	if len(paths) == len(g.lanes) {
		return storage.ReshardStats{From: len(g.lanes), To: len(g.lanes)}, nil
	}
	if g.Resharding() {
		return zero, fmt.Errorf("replication: %s: reshard already in progress", g.name)
	}
	stats, err := g.journal.Reshard(len(paths))
	if err != nil {
		return stats, err
	}
	if !g.coordinating {
		g.openBarrier()
	}
	g.resharding = true
	g.migrationBarrier = stats.BarrierEpoch
	g.reshardSettled = g.env.NewEvent()
	if g.tel != nil {
		g.reshardSpan = g.tel.StartSpan("reshard",
			fmt.Sprintf("reshard:%d->%d", stats.From, stats.To), g.tenant)
	}

	shards := g.journal.Shards()
	if len(shards) < len(g.lanes) {
		// Shrink: lanes beyond the new shard set retire. Their journals are
		// already empty (migration moved the backlog), so they exit as soon
		// as anything they had staged or in flight reaches a commit.
		g.retiring = append(g.retiring, g.lanes[len(shards):]...)
		g.lanes = g.lanes[:len(shards):len(shards)]
	}
	for k := len(g.lanes); k < len(shards); k++ {
		l := g.newLane(k, shards[k], paths[k])
		g.lanes = append(g.lanes, l)
		if g.started {
			g.startLane(l)
		}
	}
	// Wake the coordinator onto the new lane set; migration may also have
	// unblocked a sealed-epoch barrier wait by moving records around.
	g.reconfigured.Trigger()
	g.progress.Trigger()
	// A reshard with nothing pre-barrier outstanding settles immediately.
	g.settleReshard()
	return stats, nil
}

// settleReshard closes the migration window once every record of epochs <=
// the barrier is committed at the target, then reaps retiring lanes.
func (g *Group) settleReshard() {
	if !g.Resharding() {
		return
	}
	if g.resharding {
		if !g.allStagedThrough(g.migrationBarrier) {
			return
		}
		for _, l := range g.commitLanes() {
			if len(l.staged) > 0 && l.staged[0].Epoch <= g.migrationBarrier {
				return
			}
		}
		g.resharding = false
	}
	kept := g.retiring[:0]
	for _, l := range g.retiring {
		if l.journal.Pending() == 0 && l.inflight == 0 && len(l.staged) == 0 {
			l.retire.Trigger()
		} else {
			kept = append(kept, l)
		}
	}
	clear(g.retiring[len(kept):])
	g.retiring = kept
	if len(g.retiring) == 0 {
		g.reshardSettled.Trigger()
		// Close the migration-window span exactly once per reshard; the
		// zero-value reset makes later settle passes no-ops.
		g.reshardSpan.End()
		g.reshardSpan = telemetry.Span{}
	}
}

// Resharding reports whether a migration window is still open (pre-barrier
// records not yet committed, or retiring lanes not yet reaped).
func (g *Group) Resharding() bool { return g.resharding || len(g.retiring) > 0 }

// MigrationBarrier returns the epoch sealed by the most recent reshard.
func (g *Group) MigrationBarrier() int64 { return g.migrationBarrier }

// AwaitReshard blocks until the most recent reshard has fully settled (the
// barrier epoch committed, retiring lanes reaped), reporting false if the
// group stops first.
func (g *Group) AwaitReshard(p *sim.Proc) bool {
	for g.Resharding() {
		if g.stopped {
			return false
		}
		if p.WaitAny(g.reshardSettled, g.stopEv) == 1 {
			return false
		}
	}
	return true
}

// Failover stops replication and makes every target volume writable,
// returning the volumes in journal-member order. This is the backup-site
// recovery entry point (§I): the image is whatever has been applied — a
// batch boundary under lane commit, the last committed epoch under the
// barrier, always a consistent cross-volume cut.
func (g *Group) Failover() ([]*storage.Volume, error) {
	g.Stop()
	g.failedOver = true
	var vols []*storage.Volume
	for _, src := range g.journal.Members() {
		tv, err := g.target.Volume(src)
		if err != nil {
			return nil, err
		}
		tv.SetReadOnly(false)
		// Record everything the new production site writes from here on —
		// the delta-resync bitmap Failback copies back.
		tv.StartChangeTracking()
		vols = append(vols, tv)
	}
	return vols, nil
}

// FailedOver reports whether Failover ran.
func (g *Group) FailedOver() bool { return g.failedOver }

func (g *Group) String() string {
	return fmt.Sprintf("ADCGroup(%s){lanes=%d epoch=%d committed=%d applied=%d backlog=%d}",
		g.name, len(g.lanes), g.journal.Epoch(), g.committedEpoch, g.appliedRecords, g.Backlog())
}
