package storage

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sim"
)

// modelBlock is what the reference model expects of one stored block: its
// content, and for a block handed over (WriteOwned, InstallDelta, Apply) the
// slice itself, which every read must return.
type modelBlock struct {
	data    []byte
	adopted []byte
}

// modelSnap is a snapshot beside the model's image at its instant and the
// blocks it has preserved since.
type modelSnap struct {
	snap  *Snapshot
	image map[int64]modelBlock
	saved map[int64]bool
}

// TestBlockTableMatchesMapModel runs random Write, WriteOwned, InstallDelta,
// Apply and Poke sequences on volumes of 1, 4, 64 and 257 blocks, each long
// enough to take the block table from its map to its dense slice, with
// snapshots taken before, at and after the switch and change tracking
// started a third of the way in and restarted at two thirds. Every read path
// — Read, ReadRange (nil as a whole on an empty image), ReadBlocks,
// WrittenBlocks in ascending order, snapshot Peek, COWCopies, ChangedBlocks
// and CloneVolume — must equal a map model of the same writes, and a block
// handed over before the switch is still the stored slice after it.
func TestBlockTableMatchesMapModel(t *testing.T) {
	for _, size := range []int64{1, 4, 64, 257} {
		for seed := range uint64(6) {
			t.Run(fmt.Sprintf("blocks=%d/seed=%d", size, seed), func(t *testing.T) {
				tableAgainstModel(t, size, seed)
			})
		}
	}
}

func tableAgainstModel(t *testing.T, size int64, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(size)))
	env := sim.NewEnv(1)
	a := NewArray(env, "a", Config{})
	v, _ := a.CreateVolume("v", size)
	bs := a.Config().BlockSize
	model := map[int64]modelBlock{}
	var snaps []*modelSnap
	var cow int64
	var changed map[int64]bool // nil until tracking starts

	// payload is a fresh buffer of 1..BlockSize bytes whose first 8 (at
	// most) are random and the rest zeroes, so Write trims it.
	payload := func() []byte {
		buf := make([]byte, 1+rng.IntN(bs))
		for i := range min(8, len(buf)) {
			buf[i] = byte(rng.Uint32())
		}
		return buf
	}
	snapshot := func() {
		s, err := a.CreateSnapshot(fmt.Sprintf("s%d", len(snaps)), "v")
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, &modelSnap{snap: s, image: maps.Clone(model), saved: map[int64]bool{}})
	}
	installed := func(b int64, want modelBlock) {
		for _, s := range snaps {
			if !s.saved[b] {
				s.saved[b] = true
				cow++
			}
		}
		if changed != nil {
			changed[b] = true
		}
		model[b] = want
	}
	// matches reports whether got is the model's block: nil for a block
	// never written, the same content otherwise, the same slice if adopted.
	matches := func(got []byte, want modelBlock, ok bool) bool {
		if !ok {
			return got == nil
		}
		if want.adopted != nil && (len(got) == 0 || &got[0] != &want.adopted[0]) {
			return false
		}
		return sameBlock(got, want.data)
	}

	check := func(p *sim.Proc, when string) {
		for b := range size {
			want, ok := model[b]
			got, err := v.Read(p, b)
			if err != nil || !matches(got, want, ok) {
				t.Errorf("%s: Read(%d) = %x, %v; want %x", when, b, got, err, want.data)
			}
		}
		ranged, err := v.ReadRange(p, 0, int(size))
		if err != nil || (ranged == nil) != (len(model) == 0) {
			t.Errorf("%s: ReadRange over %d written blocks returned %d slots, %v", when, len(model), len(ranged), err)
		}
		for b := range size {
			want, ok := model[b]
			if got := rangeBlock(ranged, int(b)); !matches(got, want, ok) {
				t.Errorf("%s: ReadRange slot %d = %x, want %x", when, b, got, want.data)
			}
		}
		ios := make([]BlockIO, size)
		for i, b := range rng.Perm(int(size)) {
			ios[i].Block = int64(b)
		}
		if err := v.ReadBlocks(p, ios); err != nil {
			t.Errorf("%s: ReadBlocks: %v", when, err)
		}
		for _, io := range ios {
			want, ok := model[io.Block]
			if !matches(io.Data, want, ok) {
				t.Errorf("%s: ReadBlocks block %d = %x, want %x", when, io.Block, io.Data, want.data)
			}
		}
		if got, want := v.WrittenBlocks(), slices.Sorted(maps.Keys(model)); !slices.Equal(got, want) {
			t.Errorf("%s: WrittenBlocks = %v, want %v", when, got, want)
		}
		for i, s := range snaps {
			for b := range size {
				want, ok := s.image[b]
				if got := s.snap.Peek(b); !matches(got, want, ok) {
					t.Errorf("%s: snapshot %d Peek(%d) = %x, want %x", when, i, b, got, want.data)
				}
			}
		}
		if v.COWCopies() != cow {
			t.Errorf("%s: COWCopies = %d, want %d", when, v.COWCopies(), cow)
		}
		got, want := v.ChangedBlocks(), slices.Sorted(maps.Keys(changed))
		if v.TrackingChanges() != (changed != nil) || len(got) != len(want) || !slices.Equal(got, want) {
			t.Errorf("%s: tracking %v, ChangedBlocks = %v, want %v", when, v.TrackingChanges(), got, want)
		}
	}

	env.Process("ops", func(p *sim.Proc) {
		snapshot() // before anything is written
		check(p, "empty")
		switchedAt := -1
		steps := int(4*size) + 16
		for step := range steps {
			if step == steps/3 || step == 2*steps/3 {
				check(p, fmt.Sprintf("step %d (tracking starts)", step))
				v.StartChangeTracking()
				changed = map[int64]bool{}
			}
			b := int64(rng.IntN(int(size)))
			buf := payload()
			var err error
			switch rng.IntN(5) {
			case 0:
				_, err = v.Write(p, b, buf)
				installed(b, modelBlock{data: slices.Clone(buf)})
				clear(buf) // the caller keeps its buffer
			case 1:
				_, err = v.WriteOwned(p, b, buf)
				installed(b, modelBlock{data: slices.Clone(buf), adopted: buf})
			case 2:
				err = v.InstallDelta(b, buf)
				installed(b, modelBlock{data: slices.Clone(buf), adopted: buf})
			case 3:
				err = v.Apply(p, b, buf)
				installed(b, modelBlock{data: slices.Clone(buf), adopted: buf})
			default:
				err = v.Poke(b, buf)
				installed(b, modelBlock{data: slices.Clone(buf)})
				clear(buf)
			}
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
			switch {
			case switchedAt < 0 && v.dense != nil:
				switchedAt = step
				check(p, fmt.Sprintf("step %d (switch)", step))
				snapshot() // at the switch
			case switchedAt < 0 && rng.IntN(4) == 0 && len(snaps) < 4:
				snapshot() // before the switch, with blocks written
			case switchedAt >= 0 && step == switchedAt+int(size)/2+1:
				check(p, fmt.Sprintf("step %d", step))
				snapshot() // after the switch
			}
		}
		if switchedAt < 0 {
			t.Errorf("%d steps wrote %d of %d blocks and the table never turned dense", steps, len(model), size)
		}
		check(p, "end")
		for i, s := range snaps {
			clone, err := a.CloneVolume(p, s.snap.ID(), VolumeID(fmt.Sprintf("clone%d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			if got, want := clone.WrittenBlocks(), slices.Sorted(maps.Keys(s.image)); !slices.Equal(got, want) {
				t.Errorf("clone of snapshot %d holds blocks %v, want %v", i, got, want)
			}
			for b := range size {
				want, ok := s.image[b]
				if got := clone.Peek(b); !matches(got, want, ok) {
					t.Errorf("clone of snapshot %d Peek(%d) = %x, want %x", i, b, got, want.data)
				}
			}
		}
	})
	env.Run(0)
}

// BenchmarkVolumeFill is the block table's layer benchmark, one side of its
// switch per case: each op provisions a volume, hands it blocks through
// InstallDelta (so the table is all the op allocates besides the Volume) and
// deletes it. sparse writes 3 of 256 blocks, a fleet volume's shape; dense
// writes all 514 of 514 in a permuted order, a drained volume's.
func BenchmarkVolumeFill(b *testing.B) {
	for _, c := range []struct {
		name          string
		size, written int
	}{{"sparse", 256, 3}, {"dense", 514, 514}} {
		b.Run(c.name, func(b *testing.B) {
			a := NewArray(sim.NewEnv(1), "a", Config{})
			order := rand.New(rand.NewPCG(1, 2)).Perm(c.size)[:c.written]
			data := block(a, 0xA5)
			b.ReportAllocs()
			for b.Loop() {
				v, err := a.CreateVolume("v", int64(c.size))
				if err != nil {
					b.Fatal(err)
				}
				for _, blk := range order {
					v.InstallDelta(int64(blk), data)
				}
				a.DeleteVolume("v")
			}
		})
	}
}
