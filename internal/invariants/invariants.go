// Package invariants is the shared library of global correctness checks —
// the properties every experiment asserts by hand today (E13's exact
// ack-order failover prefix, E14's zero-residue decommission, E12/E15's
// consistent cuts) extracted into one implementation that both the
// experiment harnesses and the seeded chaos sweep (internal/chaos) call.
//
// Each checker is a pure function over the modelled state: it takes the
// objects to inspect and returns a slice of Violations (empty = invariant
// holds). Checkers never advance simulation time and never mutate what they
// inspect, so the chaos runner can assert them after every recovery point
// without perturbing the schedule it would need to replay.
//
// The invariants:
//
//   - consistent cut: a recovered sales/stock pair has no orphan stock
//     commits (the paper's collapse) and each volume's image is an exact
//     prefix of its ack order;
//   - stamped prefix: a failed-over volume set holds exactly the blocks
//     {1..K} of the sequence-stamped write order (E13/E15's write-heavy
//     tenants) — nothing leaked past the barrier;
//   - epoch boundary: a group's backup image is an exact ack-order prefix
//     and never exposes a record from an epoch newer than the last
//     committed one;
//   - round trip: a failback's reverse group keeps the epoch boundary, and
//     once it has caught up every member volume reads the same at both
//     sites;
//   - zero residue: a decommissioned tenant left nothing behind on either
//     array (volumes, journals, snapshots);
//   - fail-closed overflow: a journal shard over its declared capacity has
//     overflowed its group, and every member volume of an overflowed group
//     is change tracking (the resync delta is being accumulated);
//   - no orphan groups: every registered replication engine belongs to a
//     live tenant;
//   - no leaked watches: an API server has no watch registrations left
//     after its controllers stop.
package invariants

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/consistency"
	"repro/internal/platform"
	"repro/internal/storage"
)

// Violation is one broken invariant, carrying enough context to print a
// useful one-line diagnosis in a chaos repro log or an experiment failure.
type Violation struct {
	// Invariant names the checker that fired (e.g. "consistent-cut").
	Invariant string
	// Tenant is the namespace the violation belongs to ("" for global
	// checks like orphan groups or leaked watches).
	Tenant string
	// Detail is the human-readable specifics.
	Detail string
}

func (v Violation) String() string {
	if v.Tenant == "" {
		return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Tenant, v.Detail)
}

// violate is the one constructor, so every Detail is formatted the same way.
func violate(invariant, tenant, format string, args ...any) Violation {
	return Violation{Invariant: invariant, Tenant: tenant, Detail: fmt.Sprintf(format, args...)}
}

// StampedPrefix scans a failed-over volume set for its sequence-stamped
// blocks and reports the highest K with {1..K} all present — plus whether
// the image is EXACTLY that prefix (a consistent cross-volume cut: nothing
// newer leaked past the barrier). This is the E13/E15 write-heavy-tenant
// check: each block's first 8 bytes carry the big-endian ack sequence of
// the write that produced it. A block stored as a shorter prefix (stamp 256
// is 7 bytes) reads its missing stamp bytes as zeroes. The blocks are read
// in place; the one allocation is the presence set, one bool per written
// block: n blocks hold an exact prefix only if their stamps lie in 1..n, so
// a stamp of 0 or past n makes the image inexact.
func StampedPrefix(vols []*storage.Volume) (int, bool) {
	n := 0
	for _, v := range vols {
		n += v.WrittenCount()
	}
	present := make([]bool, n) // present[s-1]: a block carries stamp s
	distinct, outside := 0, false
	for _, v := range vols {
		for _, blk := range v.Blocks() {
			var stamp [8]byte
			copy(stamp[:], blk)
			switch s := binary.BigEndian.Uint64(stamp[:]); {
			case s == 0 || s > uint64(n):
				outside = true
			case !present[s-1]:
				present[s-1] = true
				distinct++
			}
		}
	}
	k := 0
	for k < n && present[k] {
		k++
	}
	return k, !outside && distinct == k
}

// CheckConsistentCut asserts the paper's core recovery invariant over a
// verified sales/stock pair: the cut did not collapse (no stock commit
// whose sales commit is missing) and each volume recovered an exact prefix
// of its ack order. Lost tails are fine — asynchronous replication loses
// recent commits — but holes and orphans are not.
func CheckConsistentCut(tenant string, rep consistency.Report) []Violation {
	var out []Violation
	if rep.Collapsed() {
		out = append(out, violate("consistent-cut", tenant,
			"collapsed: %d stock commits have no sales commit (first %v)",
			len(rep.OrphanStock), rep.OrphanStock[0]))
	}
	if !rep.SalesPrefixOK {
		out = append(out, violate("consistent-cut", tenant,
			"sales image is not an ack-order prefix (%d txns recovered)", rep.SalesTxns))
	}
	if !rep.StockPrefixOK {
		out = append(out, violate("consistent-cut", tenant,
			"stock image is not an ack-order prefix (%d txns recovered)", rep.StockTxns))
	}
	return out
}

// Image is what the epoch-boundary and round-trip checks read of a
// replication engine (*replication.Group): the high-water mark of what it
// applied, the records it still holds, where its commit rule stands, and its
// member volumes.
type Image interface {
	Named
	AppliedHighWater() (globalSeq, epoch int64)
	UnappliedRecords() []storage.Record
	CommittedEpoch() int64
	MigrationBarrier() int64
	Lanes() int
	Resharding() bool
	Members() []storage.VolumeID
}

// Named is what CheckNoOrphanGroups reads of an engine.
type Named interface{ Name() string }

// CheckEpochBoundary asserts the bound both commit rules keep on a group's
// backup image. The image is an exact ack-order prefix: every applied record
// was acked before every record still unapplied (a lane commit extends the
// prefix batch by batch, a barrier commit epoch by epoch). And while the
// barrier rule is in force nothing of an unsealed epoch is exposed: no
// applied record carries an epoch newer than the last committed one — or
// than the migration barrier, the epoch that sealed whatever a single lane
// had committed for itself before the engine grew. Installs and the
// committed-epoch advance happen in the same scheduler step, so this holds
// at every step boundary — a violation means the barrier leaked.
func CheckEpochBoundary(tenant string, g Image) []Violation {
	var out []Violation
	maxApplied, maxEpoch := g.AppliedHighWater()
	for _, r := range g.UnappliedRecords() {
		if r.GlobalSeq < maxApplied {
			out = append(out, violate("epoch-boundary", tenant,
				"%s applied ack %d ahead of unapplied ack %d: image is not an ack-order prefix",
				g.Name(), maxApplied, r.GlobalSeq))
			break
		}
	}
	if bound := max(g.CommittedEpoch(), g.MigrationBarrier()); (g.Lanes() > 1 || g.Resharding()) && maxEpoch > bound {
		out = append(out, violate("epoch-boundary", tenant,
			"%s applied a record from epoch %d past committed barrier %d",
			g.Name(), maxEpoch, bound))
	}
	return out
}

// CheckRoundTrip asserts a failback brought the main site home: the reverse
// group keeps the epoch boundary, and — checked after its CatchUp, with
// nothing writing — every member volume reads the same at from (the backup
// site, where the reverse group journals) and to (the main site it drains
// to), block by block. A member carries the same volume ID at both sites, as
// the replication plugin provisions them. A block a site never wrote reads
// as the zero block, and a stored prefix reads as zeroes past its end.
func CheckRoundTrip(tenant string, reverse Image, from, to *storage.Array) []Violation {
	out := CheckEpochBoundary(tenant, reverse)
	for _, id := range reverse.Members() {
		fv, ferr := from.Volume(id)
		tv, terr := to.Volume(id)
		if err := errors.Join(ferr, terr); err != nil {
			out = append(out, violate("round-trip", tenant, "%s member %s: %v", reverse.Name(), id, err))
			continue
		}
		for _, b := range slices.Concat(fv.WrittenBlocks(), tv.WrittenBlocks()) {
			if !sameBlock(fv.Peek(b), tv.Peek(b)) {
				out = append(out, violate("round-trip", tenant, "%s volume %s block %d reads differently at %s and %s",
					reverse.Name(), id, b, from.Name(), to.Name()))
				break
			}
		}
	}
	return out
}

// sameBlock reports whether two stored blocks read the same, the shorter one
// (nil included) reading as zeroes past its end.
func sameBlock(a, b []byte) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	return bytes.Equal(a, b[:len(a)]) && len(bytes.TrimRight(b[len(a):], "\x00")) == 0
}

// CheckZeroResidue asserts a decommissioned tenant reclaimed everything:
// one violation per object still carrying the tenant's prefix on either
// array (the core.System.TenantResidue listing), so len(violations) counts
// leaks exactly the way E14 tallies them.
func CheckZeroResidue(tenant string, residue []string) []Violation {
	out := make([]Violation, 0, len(residue))
	for _, r := range residue {
		out = append(out, violate("zero-residue", tenant, "leaked %s", r))
	}
	return out
}

// CheckFailClosed asserts the overflow contract on a consistency-group
// journal: no shard's backlog silently exceeds the declared per-shard
// capacity, and once the group has overflowed — always as a whole, a
// partially journaling group could not replay a consistent cross-shard cut
// — every member volume is change tracking so a resync can copy exactly the
// delta.
func CheckFailClosed(tenant string, a *storage.Array, sj *storage.ShardedJournal) []Violation {
	var out []Violation
	for _, j := range sj.Shards() {
		if capacity := j.CapacityBytes(); capacity > 0 && !sj.Overflowed() && j.PendingBytes() > capacity {
			out = append(out, violate("fail-closed", tenant,
				"shard %s backlog %dB exceeds capacity %dB without overflowing",
				j.ID(), j.PendingBytes(), capacity))
		}
	}
	if !sj.Overflowed() {
		return out
	}
	for _, id := range sj.Members() {
		v, err := a.Volume(id)
		if err != nil {
			out = append(out, violate("fail-closed", tenant,
				"overflowed journal %s member %s: %v", sj.ID(), id, err))
			continue
		}
		if !v.TrackingChanges() {
			out = append(out, violate("fail-closed", tenant,
				"overflowed journal %s member %s is not change tracking", sj.ID(), id))
		}
	}
	return out
}

// CheckNoOrphanGroups asserts every registered replication engine still
// belongs to a live tenant: nsOf maps an engine to its owning namespace
// ("" = unowned), live reports whether that namespace is still managed.
// Engines are examined in Name() order so the violation list is
// deterministic regardless of registry iteration order.
func CheckNoOrphanGroups[G Named](groups []G, nsOf func(G) string, live func(string) bool) []Violation {
	sorted := make([]G, len(groups))
	copy(sorted, groups)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	var out []Violation
	for _, g := range sorted {
		ns := nsOf(g)
		if ns == "" {
			out = append(out, violate("no-orphan-groups", "",
				"engine %s is registered but owned by no tenant", g.Name()))
			continue
		}
		if !live(ns) {
			out = append(out, violate("no-orphan-groups", ns,
				"engine %s outlived its tenant", g.Name()))
		}
	}
	return out
}

// CheckNoWatches asserts an API server has no watch registrations left —
// every controller unregistered on Stop. Meaningful only after the system
// quiesced; site labels the server in the violation.
func CheckNoWatches(site string, api *platform.APIServer) []Violation {
	if n := api.WatchCount(); n != 0 {
		return []Violation{violate("no-leaked-watches", "",
			"%s API server still holds %d watches after stop", site, n)}
	}
	return nil
}
