package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRestoreSnapshotRewindsDamage(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 16)
	env.Process("setup", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 0x01))
		v.Write(p, 1, block(a, 0x02))
	})
	env.Run(0)
	if _, err := a.CreateSnapshot("good", "v"); err != nil {
		t.Fatal(err)
	}
	env.Process("attack", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 0xEE)) // "encrypted" by the attacker
		v.Write(p, 2, block(a, 0xEE)) // new damage on a fresh block
	})
	env.Run(0)
	env.Process("restore", func(p *sim.Proc) {
		if err := a.RestoreSnapshot(p, "good"); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if v.Peek(0)[0] != 0x01 || v.Peek(1)[0] != 0x02 {
		t.Fatal("restore did not rewind overwritten blocks")
	}
	if v.Peek(2) != nil {
		t.Fatal("restore did not erase post-snapshot block")
	}
}

func TestRestoreRefusesJournalAttachedVolume(t *testing.T) {
	env, a := newTestArray(t)
	a.CreateVolume("v", 8)
	a.CreateSnapshot("s", "v")
	journalOn(t, a, "j", "v")
	var err error
	env.Process("restore", func(p *sim.Proc) { err = a.RestoreSnapshot(p, "s") })
	env.Run(0)
	if err == nil {
		t.Fatal("restore allowed on replication source")
	}
}

func TestRestoreMissingSnapshot(t *testing.T) {
	env, a := newTestArray(t)
	var err error
	env.Process("restore", func(p *sim.Proc) { err = a.RestoreSnapshot(p, "ghost") })
	env.Run(0)
	if err == nil {
		t.Fatal("restore of missing snapshot succeeded")
	}
}

func TestRestoreConsumesTimeProportionalToDamage(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 64)
	a.CreateSnapshot("s", "v")
	env.Process("damage", func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			v.Write(p, i, block(a, 0xFF))
		}
	})
	env.Run(0)
	before := env.Now()
	env.Process("restore", func(p *sim.Proc) { a.RestoreSnapshot(p, "s") })
	env.Run(0)
	took := env.Now() - before
	if want := 10 * a.Config().WriteLatency; took != want {
		t.Fatalf("restore took %v, want %v (10 damaged blocks)", took, want)
	}
}

func TestRestoreKeepsOtherSnapshotsCorrect(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 8)
	env.Process("w", func(p *sim.Proc) { v.Write(p, 0, block(a, 0x01)) })
	env.Run(0)
	a.CreateSnapshot("old", "v")
	env.Process("w", func(p *sim.Proc) { v.Write(p, 0, block(a, 0x02)) })
	env.Run(0)
	// A later snapshot captures the damaged state.
	a.CreateSnapshot("damaged", "v")
	env.Process("restore", func(p *sim.Proc) {
		if err := a.RestoreSnapshot(p, "old"); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	dmg, _ := a.Snapshot("damaged")
	if dmg.Peek(0)[0] != 0x02 {
		t.Fatal("restore corrupted the later snapshot's image")
	}
	if v.Peek(0)[0] != 0x01 {
		t.Fatal("restore wrong")
	}
}

func TestCloneVolumeMatchesSnapshotImage(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 16)
	env.Process("w", func(p *sim.Proc) {
		v.Write(p, 0, block(a, 0x0A))
		v.Write(p, 5, block(a, 0x0B))
	})
	env.Run(0)
	a.CreateSnapshot("s", "v")
	env.Process("w", func(p *sim.Proc) { v.Write(p, 0, block(a, 0xFF)) })
	env.Run(0)
	var clone *Volume
	env.Process("clone", func(p *sim.Proc) {
		var err error
		clone, err = a.CloneVolume(p, "s", "v-clone")
		if err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	if clone.Peek(0)[0] != 0x0A || clone.Peek(5)[0] != 0x0B {
		t.Fatal("clone missing snapshot content")
	}
	// Clone is independent of the parent.
	env.Process("w", func(p *sim.Proc) { clone.Write(p, 1, block(a, 0x77)) })
	env.Run(0)
	if v.Peek(1) != nil {
		t.Fatal("clone writes leaked to parent")
	}
}

// Restore and clone install the snapshot's stored slices themselves. That is
// only sound because no holder writes into a stored block: overwrite each
// holder in turn and every other one must keep its bytes.
func TestRestoreAndCloneShareBlocksNobodyWritesInto(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 8)
	run := func(fn func(p *sim.Proc)) {
		env.Process("step", fn)
		env.Run(0)
	}
	run(func(p *sim.Proc) { v.Write(p, 0, block(a, 0x01)); v.Write(p, 1, block(a, 0x02)) })
	a.CreateSnapshot("good", "v")
	good, _ := a.Snapshot("good")
	run(func(p *sim.Proc) { v.Write(p, 0, block(a, 0xEE)) }) // block 0 preserved by COW, block 1 still the parent's
	var clone *Volume
	run(func(p *sim.Proc) {
		var err error
		if clone, err = a.CloneVolume(p, "good", "c"); err != nil {
			t.Error(err)
		}
		if err := a.RestoreSnapshot(p, "good"); err != nil {
			t.Error(err)
		}
	})
	for b := int64(0); b < 2; b++ {
		if &clone.Peek(b)[0] != &good.Peek(b)[0] || &v.Peek(b)[0] != &good.Peek(b)[0] {
			t.Fatalf("block %d was copied, not shared: the rule is not exercised", b)
		}
	}
	want := [][]byte{block(a, 0x01), block(a, 0x02)}
	holders := map[string]func(int64) []byte{"volume": v.Peek, "snapshot": good.Peek, "clone": clone.Peek}
	check := func(after string, skip string) {
		t.Helper()
		for name, peek := range holders {
			for b := int64(0); b < 2; b++ {
				if name != skip && !bytes.Equal(peek(b), want[b]) {
					t.Fatalf("after %s: %s block %d changed", after, name, b)
				}
			}
		}
	}
	run(func(p *sim.Proc) { clone.Write(p, 0, block(a, 0x70)); clone.Write(p, 1, block(a, 0x71)) })
	check("the clone's overwrite", "clone")
	run(func(p *sim.Proc) { v.Write(p, 0, block(a, 0x80)); v.Write(p, 1, block(a, 0x81)) })
	delete(holders, "volume")
	check("the volume's overwrite", "clone")
}

func TestCloneValidation(t *testing.T) {
	env, a := newTestArray(t)
	a.CreateVolume("v", 8)
	a.CreateSnapshot("s", "v")
	env.Process("t", func(p *sim.Proc) {
		if _, err := a.CloneVolume(p, "ghost", "c"); err == nil {
			t.Error("clone of missing snapshot succeeded")
		}
		if _, err := a.CloneVolume(p, "s", "v"); err == nil {
			t.Error("clone onto existing volume succeeded")
		}
	})
	env.Run(0)
}

// TestSnapshotPropertyFrozenImage is the core COW invariant: under any
// random sequence of writes, snapshots, and restores, every live snapshot
// always reads exactly the parent content at its creation instant.
func TestSnapshotPropertyFrozenImage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(seed)
		a := NewArray(env, "a", Config{})
		const nBlocks = 16
		v, _ := a.CreateVolume("v", nBlocks)

		// model: the volume's logical content and each snapshot's frozen copy.
		model := make([][]byte, nBlocks)
		type frozen struct {
			id    string
			image [][]byte
		}
		var snaps []frozen
		copyModel := func() [][]byte {
			out := make([][]byte, nBlocks)
			for i, b := range model {
				if b != nil {
					out[i] = append([]byte(nil), b...)
				}
			}
			return out
		}

		ok := true
		env.Process("ops", func(p *sim.Proc) {
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // write
					b := int64(rng.Intn(nBlocks))
					data := block(a, byte(rng.Intn(256)))
					if _, err := v.Write(p, b, data); err != nil {
						ok = false
						return
					}
					model[b] = append([]byte(nil), data...)
				case op < 8: // snapshot
					id := string(rune('A' + len(snaps)))
					if _, err := a.CreateSnapshot(id, "v"); err != nil {
						ok = false
						return
					}
					snaps = append(snaps, frozen{id: id, image: copyModel()})
				default: // verify all snapshots against their frozen model
					for _, s := range snaps {
						snap, err := a.Snapshot(s.id)
						if err != nil {
							ok = false
							return
						}
						for b := int64(0); b < nBlocks; b++ {
							got, want := snap.Peek(b), s.image[b]
							if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
								ok = false
								return
							}
						}
					}
				}
			}
		})
		env.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
