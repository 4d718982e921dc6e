// Package storage models an enterprise external storage array of the kind
// the paper demonstrates on (Hitachi VSP G370): block volumes behind a
// controller, journal volumes feeding asynchronous replication, consistency
// groups that share one journal across volumes, and copy-on-write snapshots
// with group-atomic snapshot creation.
//
// The properties the paper's claims rest on are modelled exactly:
//
//   - every write is acknowledged in a global order (the "order of acks");
//   - a journal records writes in ack order, per journal;
//   - a consistency group shares one journal across many volumes, so the
//     backup site can replay the exact cross-volume order;
//   - snapshot groups capture all member volumes at a single instant.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Common management-API errors.
var (
	ErrNoSuchVolume    = errors.New("storage: no such volume")
	ErrVolumeExists    = errors.New("storage: volume already exists")
	ErrNoSuchJournal   = errors.New("storage: no such journal")
	ErrJournalExists   = errors.New("storage: journal already exists")
	ErrJournalAttached = errors.New("storage: volume already attached to a journal")
	ErrNoSuchSnapshot  = errors.New("storage: no such snapshot")
	ErrSnapshotExists  = errors.New("storage: snapshot already exists")
	ErrOutOfRange      = errors.New("storage: block index out of range")
	ErrBadBlockSize    = errors.New("storage: data length must be 1 to block size bytes")
	ErrReadOnly        = errors.New("storage: volume is read-only")
)

// VolumeID names a volume within one array.
type VolumeID string

// ReadLatency is the media service time per block read.
const ReadLatency = 100 * time.Microsecond

// Config holds array service-time parameters. Zero values take defaults.
type Config struct {
	// BlockSize is the bytes per block (default 4096).
	BlockSize int
	// WriteLatency is the media service time per block write (default 200µs).
	WriteLatency time.Duration
	// JournalLatency is the extra cost of appending a record to a journal
	// volume; arrays stage journal writes in battery-backed cache, so this
	// is small (default 20µs).
	JournalLatency time.Duration
	// Parallelism is the controller's concurrent operation limit (default 8).
	Parallelism int
	// IsolatedVolumes gives every volume its own single-slot service queue
	// instead of funnelling all I/O through the shared controller resource,
	// and scopes write-ack numbering to the volume's consistency group (its
	// journal — group-wide for a sharded journal — or the volume itself when
	// unjournaled). Within a group, ack order is still total — which is all
	// consistency-group replication relies on — but GlobalSeq values are not
	// comparable ACROSS groups in this mode. It is the fleets' service
	// model: each tenant's I/O waits only behind its own volume's queue, not
	// behind other tenants', which sets their commit latency and recovery
	// time. Management-plane paths (ApplyDeltaSet, snapshots) keep using the
	// shared controller.
	IsolatedVolumes bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.WriteLatency <= 0 {
		c.WriteLatency = 200 * time.Microsecond
	}
	if c.JournalLatency <= 0 {
		c.JournalLatency = 20 * time.Microsecond
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 8
	}
	return c
}

// Array is one storage system (one site has exactly one).
type Array struct {
	env        *sim.Env
	name       string
	cfg        Config
	controller *sim.Resource
	volumes    map[VolumeID]*Volume
	journals   map[string]*Journal
	sharded    map[string]*ShardedJournal
	snapshots  map[string]*Snapshot
	groups     map[string]*SnapshotGroup
	globalSeq  int64 // global ack counter across all volumes

	// Stats: operations served and bytes written.
	writeOps, readOps int64
	bytesWritten      int64
}

// NewArray returns an empty array attached to the simulation environment.
func NewArray(env *sim.Env, name string, cfg Config) *Array {
	cfg = cfg.withDefaults()
	return &Array{
		env:        env,
		name:       name,
		cfg:        cfg,
		controller: env.NewResource(cfg.Parallelism),
		volumes:    make(map[VolumeID]*Volume),
		journals:   make(map[string]*Journal),
		sharded:    make(map[string]*ShardedJournal),
		snapshots:  make(map[string]*Snapshot),
		groups:     make(map[string]*SnapshotGroup),
	}
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Config returns the effective (defaulted) configuration.
func (a *Array) Config() Config { return a.cfg }

// CreateVolume provisions a volume of sizeBlocks blocks.
func (a *Array) CreateVolume(id VolumeID, sizeBlocks int64) (*Volume, error) {
	if _, ok := a.volumes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrVolumeExists, id)
	}
	if sizeBlocks <= 0 {
		return nil, fmt.Errorf("storage: volume %s: size must be positive", id)
	}
	v := &Volume{
		id:         id,
		array:      a,
		sizeBlocks: sizeBlocks,
		blocks:     make(map[int64][]byte),
	}
	if a.cfg.IsolatedVolumes {
		v.queue = a.env.NewResource(1)
	}
	a.volumes[id] = v
	return v, nil
}

// DeleteVolume removes a volume. It fails while the volume is attached to a
// journal or has snapshots, mirroring real array guardrails.
func (a *Array) DeleteVolume(id VolumeID) error {
	v, ok := a.volumes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchVolume, id)
	}
	if v.journal != nil {
		return fmt.Errorf("storage: volume %s is attached to journal %s", id, v.journal.id)
	}
	if len(v.snapshots) > 0 {
		return fmt.Errorf("storage: volume %s has %d snapshots", id, len(v.snapshots))
	}
	delete(a.volumes, id)
	return nil
}

// Volume returns the volume with the given ID.
func (a *Array) Volume(id VolumeID) (*Volume, error) {
	v, ok := a.volumes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchVolume, id)
	}
	return v, nil
}

// ListVolumes returns all volume IDs in lexical order.
func (a *Array) ListVolumes() []VolumeID {
	ids := make([]VolumeID, 0, len(a.volumes))
	for id := range a.volumes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Journal returns the shard journal with the given ID.
func (a *Array) Journal(id string) (*Journal, error) {
	j, ok := a.journals[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJournal, id)
	}
	return j, nil
}

// ApplyDeltaSet consumes the service time of applying an n-block
// replication delta set: the blocks pipeline across the controller's
// parallelism, and one controller slot is held for the span so concurrent
// work on this array observes the load. The caller installs the blocks
// afterwards (atomically, via Volume.InstallDelta) — see the replication
// engine's lane and epoch commits.
func (a *Array) ApplyDeltaSet(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	a.controller.Acquire(p)
	d := time.Duration(n) * a.cfg.WriteLatency / time.Duration(a.cfg.Parallelism)
	if d < a.cfg.WriteLatency {
		d = a.cfg.WriteLatency
	}
	p.Sleep(d)
	a.controller.Release()
}

// chargeBatch passes the service time of one request of n block operations of
// lat each on queue — the one cost rule every host read and write shares. The
// request takes one slot as any I/O does, waiting its turn for it, then every
// slot free right now (TryAcquire refuses while anyone waits: admission stays
// FIFO), and runs ceil(n/width) rounds of lat in one scheduler step, first
// narrowing to the least width that finishes in that many rounds. What it
// saves in span it holds in width: slot-time is n × lat plus at most one
// partial round, and on a queue of one (an isolated volume's) it is n × lat.
//
// A range is one sequential command and keeps its slots to the end. A vector
// is n independent commands (yields): while anyone is queued behind it, it
// runs one round, gives its slots back and goes to the back of the line for
// the rest — what the same commands issued one at a time would do — so a
// scatter or gather on a saturated queue deepens nobody's wait.
func chargeBatch(p *sim.Proc, queue *sim.Resource, n int, lat time.Duration, yields bool) {
	for n > 0 {
		queue.Acquire(p)
		width := 1
		for width < n && queue.TryAcquire() {
			width++
		}
		rounds := (n + width - 1) / width
		for least := (n + rounds - 1) / rounds; width > least; width-- {
			queue.Release()
		}
		if yields && queue.QueueLen() > 0 {
			rounds = 1
		}
		p.Sleep(time.Duration(rounds) * lat)
		n -= rounds * width
		for ; width > 0; width-- {
			queue.Release()
		}
	}
}

// nextGlobalSeq stamps one write ack in the array-wide order.
func (a *Array) nextGlobalSeq() int64 {
	a.globalSeq++
	return a.globalSeq
}

// Usage summarizes the array's allocated state — the free-list invariant
// tenant decommissioning is checked against: after a tenant is provisioned
// and fully decommissioned, every counter returns to its prior value (no
// leaked volumes, journals, shards, snapshots, or blocks).
type Usage struct {
	Volumes         int
	Journals        int // shard journals across all consistency groups
	ShardedJournals int // consistency-group journals
	Snapshots       int
	SnapshotGroups  int
	AttachedVolumes int   // volumes currently routed into a journal
	StoredBlocks    int64 // blocks holding data across all volumes
	PendingRecords  int   // undrained journal records across all journals
	SavedBlocks     int64 // COW blocks preserved across all snapshots
}

// Usage returns the current allocation snapshot.
func (a *Array) Usage() Usage {
	var u Usage
	u.Volumes = len(a.volumes)
	u.Journals = len(a.journals)
	u.ShardedJournals = len(a.sharded)
	u.Snapshots = len(a.snapshots)
	u.SnapshotGroups = len(a.groups)
	for _, v := range a.volumes {
		if v.journal != nil {
			u.AttachedVolumes++
		}
		u.StoredBlocks += int64(len(v.blocks))
	}
	for _, j := range a.journals {
		u.PendingRecords += j.Pending()
	}
	for _, s := range a.snapshots {
		u.SavedBlocks += int64(len(s.saved))
	}
	return u
}

// Residue lists every array object still tied to the given ID prefix: a
// volume whose ID starts with it, a shard journal named with it, a
// consistency-group journal named with it or still carrying a matching
// member, a snapshot of a matching volume, or a snapshot group with a
// matching member. A fully decommissioned
// tenant's prefixes must report nothing — the array-level leak check.
func (a *Array) Residue(prefix string) []string {
	var out []string
	for id := range a.volumes {
		if strings.HasPrefix(string(id), prefix) {
			out = append(out, "volume "+string(id))
		}
	}
	for id := range a.journals {
		if strings.HasPrefix(id, prefix) {
			out = append(out, "journal "+id)
		}
	}
	for id, sj := range a.sharded {
		if strings.HasPrefix(id, prefix) {
			out = append(out, "sharded journal "+id)
			continue
		}
		for _, m := range sj.members {
			if strings.HasPrefix(string(m), prefix) {
				out = append(out, fmt.Sprintf("sharded journal %s member %s", id, m))
				break
			}
		}
	}
	for id, s := range a.snapshots {
		if strings.HasPrefix(string(s.parent.id), prefix) {
			out = append(out, fmt.Sprintf("snapshot %s of %s", id, s.parent.id))
		}
	}
	for name, g := range a.groups {
		for _, s := range g.snaps {
			if strings.HasPrefix(string(s.parent.id), prefix) {
				out = append(out, fmt.Sprintf("snapshot group %s member of %s", name, s.parent.id))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// WriteOps returns the total number of block writes served.
func (a *Array) WriteOps() int64 { return a.writeOps }

// ReadOps returns the total number of block reads served.
func (a *Array) ReadOps() int64 { return a.readOps }

// BytesWritten returns the total bytes written to volumes.
func (a *Array) BytesWritten() int64 { return a.bytesWritten }

func (a *Array) String() string {
	return fmt.Sprintf("Array(%s){vols=%d journals=%d snaps=%d}", a.name, len(a.volumes), len(a.journals), len(a.snapshots))
}
