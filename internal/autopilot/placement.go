package autopilot

import (
	"fmt"
	"time"

	"repro/internal/fabric"
)

// LeastLoaded is the autopilot's placement policy: a new drain lane lands on
// the non-partitioned member link carrying the least load. Load is judged
// in three tiers:
//
//  1. placements this policy itself made within placementMemory — a
//     reshard creates its lanes back-to-back at one instant, before any
//     bytes flow, so byte counters alone would pile every new lane onto
//     the same member;
//  2. recent utilization: an EWMA of each member's byte rate per unit of
//     bandwidth, maintained from the periodic Observe feed (the autopilot
//     calls Observe once per control tick). This is what steers a lane
//     toward a member whose traffic has been derated away and off one that
//     merely accumulated bytes in the past;
//  3. cumulative sent bytes per unit of bandwidth, the cold-start
//     tiebreak before any observation exists.
//
// Ties break on the lowest member index; a single-member fabric keeps the
// implicit any-link default.
type LeastLoaded struct {
	placed []placement

	// Utilization EWMA per member link, fed by Observe.
	lastAt    time.Duration
	lastBytes []int64
	ewmaBps   []float64
	observed  bool
}

// placementMemory is how long a placement keeps counting as load: long
// enough to cover a burst of reshards, short enough that retired lanes stop
// weighing on the score.
const placementMemory = 5 * time.Second

type placement struct {
	at   time.Duration
	link int
}

// Observe folds the members' current byte counters into the utilization
// EWMA. The autopilot calls it once per control tick; anyone driving the
// policy standalone can call it on any fixed cadence.
func (ll *LeastLoaded) Observe(f *fabric.Fabric) {
	links := f.Links()
	now := f.Now()
	if len(ll.lastBytes) != len(links) {
		ll.lastBytes = make([]int64, len(links))
		ll.ewmaBps = make([]float64, len(links))
		for i, l := range links {
			ll.lastBytes[i] = l.SentBytes()
		}
		ll.lastAt = now
		return
	}
	dt := (now - ll.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	for i, l := range links {
		sent := l.SentBytes()
		inst := float64(sent-ll.lastBytes[i]) / dt
		ll.ewmaBps[i] = 0.5*ll.ewmaBps[i] + 0.5*inst
		ll.lastBytes[i] = sent
	}
	ll.lastAt = now
	ll.observed = true
}

// PlaceLane implements core.PlacementPolicy.
func (ll *LeastLoaded) PlaceLane(namespace string, lane int, f *fabric.Fabric) int {
	links := f.Links()
	if len(links) < 2 {
		return -1
	}
	now := f.Now()
	recent := make([]int, len(links))
	kept := ll.placed[:0]
	for _, pl := range ll.placed {
		if now-pl.at <= placementMemory {
			kept = append(kept, pl)
			if pl.link < len(links) {
				recent[pl.link]++
			}
		}
	}
	ll.placed = kept

	best := -1
	var bestCount int
	var bestScore float64
	for i, l := range links {
		if l.Partitioned() {
			continue
		}
		bw := l.Config().BandwidthBps
		if bw <= 0 {
			bw = 1 // unlimited links score by raw rate
		}
		var score float64
		if ll.observed && i < len(ll.ewmaBps) {
			score = ll.ewmaBps[i] / bw
		} else {
			score = float64(l.SentBytes()) / bw
		}
		if best < 0 || recent[i] < bestCount || (recent[i] == bestCount && score < bestScore) {
			best, bestCount, bestScore = i, recent[i], score
		}
	}
	if best >= 0 {
		ll.placed = append(ll.placed, placement{at: now, link: best})
	}
	return best
}

// loggingPlacement is the core.PlacementPolicy the autopilot installs: its
// LeastLoaded placer, with every answer landing in the decision log.
// Placement runs inside reconcile steps, which the kernel runs one at a
// time, so appending here is deterministic.
type loggingPlacement struct{ a *Autopilot }

func (lp loggingPlacement) PlaceLane(namespace string, lane int, f *fabric.Fabric) int {
	li := lp.a.placer.PlaceLane(namespace, lane, f)
	if li >= 0 {
		lp.a.record(lp.a.sys.Env.Now(), namespace, "place-lane",
			fmt.Sprintf("lane %d -> link %d", lane, li))
	}
	return li
}
