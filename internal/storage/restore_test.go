package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

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

// A restore is a clone of the snapshot (examples/ransomware), and the clone
// installs the snapshot's stored slices themselves. That is only sound
// because no holder writes into a stored block: overwrite each holder in turn
// and every other one must keep its bytes.
func TestRestoreAndCloneShareBlocksNobodyWritesInto(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 8)
	run := func(fn func(p *sim.Proc)) {
		env.Process("step", fn)
		env.Run(0)
	}
	run(func(p *sim.Proc) { v.Write(p, 0, block(a, 0x01)); v.Write(p, 1, block(a, 0x02)) })
	good, _ := a.CreateSnapshot("good", "v")
	run(func(p *sim.Proc) { v.Write(p, 0, block(a, 0xEE)) }) // block 0 preserved by COW, block 1 still the parent's
	var clone *Volume
	run(func(p *sim.Proc) {
		var err error
		if clone, err = a.CloneVolume(p, "good", "c"); err != nil {
			t.Error(err)
		}
	})
	for b := int64(0); b < 2; b++ {
		if &clone.Peek(b)[0] != &good.Peek(b)[0] {
			t.Fatalf("block %d was copied, not shared: the rule is not exercised", b)
		}
	}
	if &v.Peek(1)[0] != &good.Peek(1)[0] {
		t.Fatal("block 1 was copied at the snapshot: the volume should still share it")
	}
	want := [][]byte{block(a, 0x01), block(a, 0x02)}
	holders := map[string]func(int64) []byte{"snapshot": good.Peek, "clone": clone.Peek}
	check := func(after string) {
		t.Helper()
		for name, peek := range holders {
			for b := int64(0); b < 2; b++ {
				if !bytes.Equal(peek(b), want[b]) {
					t.Fatalf("after %s: %s block %d changed", after, name, b)
				}
			}
		}
	}
	run(func(p *sim.Proc) { v.Write(p, 1, block(a, 0x81)) }) // the one block all three share
	check("the volume's overwrite")
	run(func(p *sim.Proc) { clone.Write(p, 0, block(a, 0x70)); clone.Write(p, 1, block(a, 0x71)) })
	delete(holders, "clone")
	check("the clone's overwrite")
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
// random sequence of writes and snapshots, every live snapshot
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
			snap  *Snapshot
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
					snap, err := a.CreateSnapshot(id, "v")
					if err != nil {
						ok = false
						return
					}
					snaps = append(snaps, frozen{snap: snap, image: copyModel()})
				default: // verify all snapshots against their frozen model
					for _, s := range snaps {
						for b := int64(0); b < nBlocks; b++ {
							got, want := s.snap.Peek(b), s.image[b]
							if !sameBlock(got, want) {
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
