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
	"bytes"
	"errors"
	"fmt"
	"math"
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
	// instead of funnelling all I/O through the shared controller resource.
	// It is the fleets' service model: each tenant's I/O waits only behind
	// its own volume's queue, not behind other tenants', which sets their
	// commit latency and recovery time. Management-plane paths
	// (ApplyDeltaSet, snapshots) keep using the shared controller. Ack
	// numbering is the same array-wide GlobalSeq in either mode.
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
	sharded    map[string]*ShardedJournal
	snapshots  map[string]*Snapshot
	groups     map[string]*SnapshotGroup
	globalSeq  int64 // global ack counter across all volumes

	// slab is the chunk Write carves short prefixes from, front to back: its
	// length is the part carved. No byte is carved twice, so every room keeps
	// its bytes for as long as a block or a record holds it (and keeps its
	// slab reachable as long).
	slab []byte

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
		sharded:    make(map[string]*ShardedJournal),
		snapshots:  make(map[string]*Snapshot),
		groups:     make(map[string]*SnapshotGroup),
	}
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Config returns the effective (defaulted) configuration.
func (a *Array) Config() Config { return a.cfg }

// CreateVolume provisions a volume of sizeBlocks blocks, 1..math.MaxInt32
// (a journal Record holds its block as an int32).
func (a *Array) CreateVolume(id VolumeID, sizeBlocks int64) (*Volume, error) {
	if _, ok := a.volumes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrVolumeExists, id)
	}
	if sizeBlocks <= 0 || sizeBlocks > math.MaxInt32 {
		return nil, fmt.Errorf("storage: volume %s: size must be 1..%d blocks", id, math.MaxInt32)
	}
	v := &Volume{
		id:         id,
		array:      a,
		sizeBlocks: sizeBlocks,
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

// Carving: a prefix of at most maxRoom bytes is copied into a room cut from a
// slabBytes chunk; a longer one gets its own allocation.
const (
	maxRoom   = 256
	slabBytes = 4096
)

// carve returns a copy of data for Write to hand over: for a short prefix, a
// room cut from the front of the array's slab and capped at its length, so an
// append to the stored block copies instead of reaching the next room.
func (a *Array) carve(data []byte) []byte {
	n := len(data)
	if n > maxRoom {
		return bytes.Clone(data)
	}
	off := len(a.slab)
	if off+n > cap(a.slab) {
		a.slab, off = make([]byte, 0, slabBytes), 0
	}
	a.slab = a.slab[:off+n]
	return append(a.slab[off:off:off+n], data...)
}

// nextGlobalSeq stamps one write ack in the array-wide order.
func (a *Array) nextGlobalSeq() int64 {
	a.globalSeq++
	return a.globalSeq
}

// Residue lists every array object still tied to the given ID prefix: a
// volume whose ID starts with it, a group's shard journal named with it, a
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
	for id, sj := range a.sharded {
		for _, j := range sj.shards {
			if strings.HasPrefix(j.id, prefix) {
				out = append(out, "journal "+j.id)
			}
		}
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
	return fmt.Sprintf("Array(%s){vols=%d journals=%d snaps=%d}", a.name, len(a.volumes), len(a.sharded), len(a.snapshots))
}
