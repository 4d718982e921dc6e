package replication

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// lanePaths builds n independent link-pair paths for a reshard target set.
func lanePaths(env *sim.Env, n int, cfg netlink.Config) []fabric.Path {
	out := make([]fabric.Path, n)
	for k := range out {
		out[k] = netlink.NewPair(env, cfg).Forward
	}
	return out
}

// verifyConverged checks the backup image equals the source image block for
// block after a full drain.
func (r *shardedRig) verifyConverged(t *testing.T) {
	t.Helper()
	for _, id := range r.vols {
		sv, _ := r.main.Volume(id)
		tv, _ := r.backup.Volume(id)
		for _, b := range sv.WrittenBlocks() {
			if !bytes.Equal(sv.Peek(b), tv.Peek(b)) {
				t.Fatalf("volume %s block %d diverged after drain", id, b)
			}
		}
	}
}

// TestLiveReshardGrowUnderLoad reshards 2->4 while the writer keeps
// committing: untouched lanes keep draining, new lanes pick up migrated
// volumes, and the drain converges to the exact source image.
func TestLiveReshardGrowUnderLoad(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	r := newShardedRig(t, 2, 16, link, Config{BatchMax: 8})
	r.g.Start()
	const writes = 192
	var stats storage.ReshardStats
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
			if i == writes/2 {
				var err error
				stats, err = r.g.Reshard(p, lanePaths(r.env, 4, link))
				if err != nil {
					t.Errorf("reshard: %v", err)
					return
				}
			}
		}
		if !r.g.AwaitReshard(p) {
			t.Error("reshard never settled")
		}
		if !r.g.CatchUp(p) {
			t.Error("catch-up failed")
		}
	})
	r.env.Run(0)
	if t.Failed() {
		return
	}
	if stats.From != 2 || stats.To != 4 || stats.BarrierEpoch == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if r.g.Lanes() != 4 || r.g.Resharding() {
		t.Fatalf("lanes=%d resharding=%v after settle", r.g.Lanes(), r.g.Resharding())
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != writes || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, writes)
	}
	r.verifyConverged(t)
	if r.g.Backlog() != 0 {
		t.Fatalf("backlog %d after catch-up", r.g.Backlog())
	}
}

// TestLiveReshardShrinkReapsRetiredLanes reshards 4->2 mid-load: the two
// retired lanes must commit what they had staged, then disappear; their
// shard journals are off the array.
func TestLiveReshardShrinkReapsRetiredLanes(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	r := newShardedRig(t, 4, 16, link, Config{BatchMax: 8})
	r.g.Start()
	const writes = 192
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
			if i == writes/2 {
				if _, err := r.g.Reshard(p, lanePaths(r.env, 2, link)); err != nil {
					t.Errorf("reshard: %v", err)
					return
				}
			}
		}
		if !r.g.AwaitReshard(p) {
			t.Error("reshard never settled")
		}
		r.g.CatchUp(p)
	})
	r.env.Run(0)
	if t.Failed() {
		return
	}
	if r.g.Lanes() != 2 || len(r.g.retiring) != 0 {
		t.Fatalf("lanes=%d retiring=%d after settle", r.g.Lanes(), len(r.g.retiring))
	}
	for _, k := range []int{2, 3} {
		if res := r.main.Residue(fmt.Sprintf("cg#s%d", k)); len(res) != 0 {
			t.Fatalf("retired shard journal cg#s%d still on the array: %v", k, res)
		}
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != writes || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, writes)
	}
	r.verifyConverged(t)
}

// TestMidReshardFailoverIsExactEpochPrefix races a disaster into the open
// migration window: the recovered image must be an exact ack-order prefix —
// entirely pre-barrier or entirely post-barrier state, never a mix.
func TestMidReshardFailoverIsExactEpochPrefix(t *testing.T) {
	for _, d := range []time.Duration{2 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			// Thin links so a deep backlog exists when the reshard hits.
			link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}
			r := newShardedRig(t, 1, 16, link, Config{BatchMax: 8})
			r.g.Start()
			const writes = 256
			resharded := r.env.NewEvent()
			r.env.Process("writer", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					r.seqWrite(p, t, i)
					if i == writes/2 {
						if _, err := r.g.Reshard(p, lanePaths(r.env, 4, link)); err != nil {
							t.Errorf("reshard: %v", err)
							return
						}
						resharded.Trigger()
					}
				}
			})
			var racedWindow bool
			r.env.Process("disaster", func(p *sim.Proc) {
				p.Wait(resharded)
				p.Sleep(d)
				racedWindow = r.g.Resharding()
				if _, err := r.g.Failover(); err != nil {
					t.Errorf("failover: %v", err)
				}
			})
			r.env.Run(0)
			if t.Failed() {
				return
			}
			n, exact := exactPrefix(r.presentSeqs())
			if !exact {
				t.Fatalf("failover image is not an exact ack-order prefix (cut=%d, raced window=%v)", n, racedWindow)
			}
			if n > writes {
				t.Fatalf("cut %d beyond writes", n)
			}
		})
	}
}

// TestReshardSameCountIsNoop pins the unchanged-reconcile contract at the
// engine level: zero migration, zero counters, same lanes.
func TestReshardSameCountIsNoop(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e8}
	r := newShardedRig(t, 2, 8, link, Config{})
	r.g.Start()
	r.env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			r.seqWrite(p, t, i)
		}
		stats, err := r.g.Reshard(p, lanePaths(r.env, 2, link))
		if err != nil {
			t.Errorf("noop reshard: %v", err)
			return
		}
		if stats.BarrierEpoch != 0 || stats.MovedRecords != 0 || stats.MovedVolumes != 0 {
			t.Errorf("noop reshard did work: %+v", stats)
		}
		r.g.CatchUp(p)
	})
	r.env.Run(0)
	if r.g.Journal().Reshards() != 0 || r.sj.MovedRecords() != 0 {
		t.Fatalf("noop reshard bumped counters: reshards=%d moved=%d",
			r.g.Journal().Reshards(), r.sj.MovedRecords())
	}
	if r.g.Lanes() != 2 {
		t.Fatalf("lanes = %d", r.g.Lanes())
	}
}

// TestReshardGuards covers the refusal surface: failed-over and stopped
// engines, zero lanes, and double reshards mid-window.
func TestReshardGuards(t *testing.T) {
	link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}
	r := newShardedRig(t, 2, 8, link, Config{BatchMax: 4})
	r.g.Start()
	r.env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			r.seqWrite(p, t, i)
		}
		if _, err := r.g.Reshard(p, nil); err == nil {
			t.Error("reshard to 0 lanes must refuse")
		}
		if _, err := r.g.Reshard(p, lanePaths(r.env, 4, link)); err != nil {
			t.Errorf("first reshard: %v", err)
		}
		if r.g.Resharding() {
			if _, err := r.g.Reshard(p, lanePaths(r.env, 8, link)); err == nil {
				t.Error("reshard during open migration window must refuse")
			}
		}
		r.g.AwaitReshard(p)
		r.g.CatchUp(p)
		if _, err := r.g.Failover(); err != nil {
			t.Error(err)
		}
		if _, err := r.g.Reshard(p, lanePaths(r.env, 2, link)); err == nil {
			t.Error("reshard on a failed-over group must refuse")
		}
	})
	r.env.Run(0)
}

// TestMidShrinkFailoverIsExactEpochPrefix is the shrink-direction twin of
// the grow race above, with deliberately lopsided lanes: the surviving
// lane drains fast (staging open-epoch records early) while the retiring
// lane lags with sealed-epoch records still pending at the barrier — so
// migration stages OLDER-epoch records BEHIND newer ones on the surviving
// lane. Every failover offset must still recover an exact ack-order
// prefix.
func TestMidShrinkFailoverIsExactEpochPrefix(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond, 60 * time.Millisecond} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r := newBareRig(t, 16)
			env := r.env
			fast := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 4e7}
			slow := netlink.Config{Propagation: 8 * time.Millisecond, BandwidthBps: 5e5}
			paths := []fabric.Path{
				netlink.NewPair(env, fast).Forward, // lane 0 races ahead
				netlink.NewPair(env, slow).Forward, // lane 1 lags behind the seals
			}
			r.wire(t, paths, Config{BatchMax: 4})
			g := r.g
			g.Start()

			const writes = 160
			resharded := env.NewEvent()
			env.Process("writer", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					r.seqWrite(p, t, i)
					if i == writes/2 {
						if _, err := g.Reshard(p, paths[:1]); err != nil {
							t.Errorf("reshard: %v", err)
							return
						}
						resharded.Trigger()
					}
				}
			})
			env.Process("disaster", func(p *sim.Proc) {
				p.Wait(resharded)
				p.Sleep(d)
				if _, err := g.Failover(); err != nil {
					t.Errorf("failover: %v", err)
				}
			})
			env.Run(0)
			if t.Failed() {
				return
			}
			n, exact := exactPrefix(r.presentSeqs())
			if !exact {
				t.Fatalf("failover image is not an exact ack-order prefix (cut=%d of %d)", n, writes)
			}
		})
	}
}

// TestShrinkMigrationBehindOpenEpochStillCommitsWhole pins the nastiest
// migration interleaving: the reshard fires at the exact instant the
// surviving lane has already staged OPEN-epoch records while the retiring
// lane still holds SEALED-epoch records pending — so migration appends
// older-epoch records BEHIND newer ones in the surviving lane's staged
// list. Epoch commits during the window must still include every record of
// the sealed epoch (no prefix-scan shortcut), and a failover right after
// the first such commit must recover an exact ack-order prefix.
func TestShrinkMigrationBehindOpenEpochStillCommitsWhole(t *testing.T) {
	r := newBareRig(t, 16)
	env := r.env
	fast := netlink.Config{Propagation: 200 * time.Microsecond, BandwidthBps: 1e8}
	slow := netlink.Config{Propagation: 8 * time.Millisecond, BandwidthBps: 5e5}
	paths := []fabric.Path{
		netlink.NewPair(env, fast).Forward,
		netlink.NewPair(env, slow).Forward,
	}
	r.wire(t, paths, Config{BatchMax: 4})
	g := r.g
	g.Start()

	const writes = 240
	done := env.NewEvent()
	env.Process("writer", func(p *sim.Proc) {
		defer done.Trigger()
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
	})
	env.Process("reshard-then-cut", func(p *sim.Proc) {
		// Wait for the hazard: surviving lane 0 staged past the epoch the
		// retiring lane 1 still owes (its oldest pending record).
		deadline := p.Now() + 10*time.Second
		hazard := false
		for p.Now() < deadline {
			l0, l1 := g.lanes[0], g.lanes[1]
			if n := len(l0.staged); n > 0 {
				if e1, ok := l1.journal.OldestPendingEpoch(); ok && e1 < l0.staged[n-1].Epoch {
					hazard = true
					break
				}
			}
			p.Sleep(100 * time.Microsecond)
		}
		if !hazard {
			t.Error("hazard precondition never arose (rig timing changed?)")
			return
		}
		commits0 := g.EpochCommits()
		if _, err := g.Reshard(p, paths[:1]); err != nil {
			t.Errorf("reshard: %v", err)
			return
		}
		// Split the pair right after the FIRST migration-window commit
		// exposes an image — the instant a prefix-scan shortcut over the
		// non-monotone staged list would leave a cross-volume gap.
		for p.Now() < deadline && g.EpochCommits() == commits0 {
			p.Sleep(50 * time.Microsecond)
		}
		if g.EpochCommits() == commits0 {
			t.Error("no epoch commit landed inside the migration window")
			return
		}
		if _, err := g.Failover(); err != nil {
			t.Errorf("failover: %v", err)
		}
	})
	env.Run(0)
	if t.Failed() {
		return
	}
	n, exact := exactPrefix(r.presentSeqs())
	if !exact {
		t.Fatalf("failover image is not an exact ack-order prefix (cut=%d of %d): a migration-window commit skipped staged records of its own epoch", n, writes)
	}
}

// TestLaneCountTransitions drives the one engine through sequences of lane
// counts under live stamped writes — including both crossings of the commit
// rule, lane commit -> barrier (1->N) and barrier -> lane commit (N->1) —
// with the pair split at every kind of instant: before the first reshard,
// inside each migration window, and after the last one settled. Every split
// must leave an exact ack-order prefix. Run to the end, a sequence that
// finishes on one lane must have handed the commit rule back: epoch commits
// stop while applied records keep growing, and stopping the engine leaves no
// coordinator or retired-lane process parked.
func TestLaneCountTransitions(t *testing.T) {
	// A writer outpacing even four thin lanes keeps a backlog under every
	// reshard, so each migration window stays open for a while.
	link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}
	const think = 400 * time.Microsecond // writer pace: ~10 MB/s of 4 KiB blocks
	const dwell = 30 * time.Millisecond  // driver pause between steps
	for _, seq := range [][]int{{1, 4}, {4, 1}, {1, 4, 1}, {2, 1, 3}} {
		// cut < 0 runs to the end; cut == 0 splits before the first reshard;
		// cut == k splits inside the k-th migration window; cut == len(seq)
		// splits after the last window settled.
		for cut := -1; cut <= len(seq); cut++ {
			seq, cut := seq, cut
			t.Run(fmt.Sprintf("%v/cut=%d", seq, cut), func(t *testing.T) {
				r := newShardedRig(t, seq[0], 16, link, Config{BatchMax: 8})
				g := r.g
				g.Start()
				acked, quiesce := 0, false
				written := r.env.NewEvent()
				r.env.Process("writer", func(p *sim.Proc) {
					for ; !quiesce && !g.Stopped(); acked++ {
						r.seqWrite(p, t, acked)
						p.Sleep(think)
					}
					written.Trigger()
				})
				r.env.Process("driver", func(p *sim.Proc) {
					p.Sleep(dwell)
					if cut == 0 {
						g.Failover()
						return
					}
					for k, lanes := range seq[1:] {
						if _, err := g.Reshard(p, lanePaths(r.env, lanes, link)); err != nil {
							t.Errorf("reshard to %d: %v", lanes, err)
							return
						}
						p.Sleep(dwell / 6)
						if cut == k+1 {
							if !g.Resharding() {
								t.Errorf("window %d closed before the split (rig timing changed?)", k+1)
							}
							g.Failover()
							return
						}
						if !g.AwaitReshard(p) {
							t.Errorf("reshard to %d never settled", lanes)
							return
						}
						if g.Lanes() != lanes {
							t.Errorf("lanes = %d after settling at %d", g.Lanes(), lanes)
						}
						p.Sleep(dwell)
					}
					if cut == len(seq) {
						g.Failover()
						return
					}
					if seq[len(seq)-1] == 1 {
						commits, applied := g.EpochCommits(), g.AppliedRecords()
						p.Sleep(dwell)
						if g.EpochCommits() != commits || g.AppliedRecords() <= applied {
							t.Errorf("one settled lane under load: epoch commits %d -> %d, applied %d -> %d; want the lane committing its own batches",
								commits, g.EpochCommits(), applied, g.AppliedRecords())
						}
					}
					quiesce = true
					p.Wait(written)
					if !g.CatchUp(p) {
						t.Error("catch-up interrupted")
					}
					g.Stop()
				})
				r.env.Run(0)
				if t.Failed() {
					return
				}
				n, exact := exactPrefix(r.presentSeqs())
				if !exact {
					t.Fatalf("backup image is not an exact ack-order prefix (cut=%d of %d acked)", n, acked)
				}
				if int(g.AppliedRecords()) != n {
					t.Fatalf("applied=%d but image prefix=%d", g.AppliedRecords(), n)
				}
				if cut < 0 {
					if n != acked {
						t.Fatalf("drained run holds %d of %d writes", n, acked)
					}
					r.verifyConverged(t)
				} else if got := len(g.UnappliedRecords()); got != acked-n {
					t.Fatalf("unapplied=%d, want %d", got, acked-n)
				}
				if !r.env.Idle() || r.env.Blocked() != 0 {
					t.Fatalf("engine stopped but %d processes stay parked (queue idle=%v)", r.env.Blocked(), r.env.Idle())
				}
			})
		}
	}
}

// TestResyncConvergesAtAnyLaneCount squeezes the journal under a backlog so
// the group fails closed, keeps writing while suspended, and recovers with
// the delta resync: one lane and four lanes run the same code, each volume's
// delta over its own lane path, and both converge to the source image with
// journaling re-enabled.
func TestResyncConvergesAtAnyLaneCount(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			r := newShardedRig(t, lanes, 8, link, Config{BatchMax: 8})
			g := r.g
			r.env.Process("driver", func(p *sim.Proc) {
				for i := 0; i < 40; i++ { // no drain yet: pure backlog
					r.seqWrite(p, t, i)
				}
				r.sj.SetCapacityPerShard(1)
				if !g.Journal().Overflowed() {
					t.Error("squeeze under backlog did not suspend the pair")
					return
				}
				for i := 40; i < 64; i++ { // suspended: tracked, not journaled
					r.seqWrite(p, t, i)
				}
				r.sj.SetCapacityPerShard(0)
				g.Start()
				if err := g.Resync(p, r.main); err != nil {
					t.Errorf("resync: %v", err)
					return
				}
				if g.Journal().Overflowed() {
					t.Error("pair still suspended after resync")
				}
				for i := 64; i < 72; i++ { // journaling works again
					r.seqWrite(p, t, i)
				}
				g.CatchUp(p)
				g.Stop()
			})
			r.env.Run(0)
			if t.Failed() {
				return
			}
			if n, exact := exactPrefix(r.presentSeqs()); n != 72 || !exact {
				t.Fatalf("backup has %d writes (exact=%v), want all 72", n, exact)
			}
			r.verifyConverged(t)
			if (g.EpochCommits() > 0) != (lanes > 1) {
				t.Fatalf("lanes=%d recovered with %d epoch commits", lanes, g.EpochCommits())
			}
		})
	}
}
