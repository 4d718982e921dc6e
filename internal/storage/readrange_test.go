package storage

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// reader is the read surface Volume and Snapshot share.
type reader interface {
	Read(p *sim.Proc, block int64) ([]byte, error)
	Peek(block int64) []byte
	ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error)
}

// The one read contract: Read, Peek and ReadRange, on a Volume and on a
// Snapshot, are sparse (nil <=> never written) and borrowed (a written block
// is the stored slice itself, which no later write may change). The table
// walks a volume and a snapshot of it through every block history the system
// produces, with and without a live snapshot; after each stage the three
// accessors of both readers must hand out the same slice, charge what they
// always charged, and every slice borrowed at an earlier stage must still
// hold the bytes it held then. The 6-block range is one request: one round on
// the idle 8-slot controller, six on an isolated volume's queue of one (its
// snapshot is still served by the controller). A range with no block written
// is nil as a whole and charged the same: the first stage reads a fresh volume
// and a snapshot taken before any write.
func TestEveryReadIsSparseAndBorrowed(t *testing.T) {
	everyReadIsSparseAndBorrowed(t, Config{}, 1)
	everyReadIsSparseAndBorrowed(t, Config{IsolatedVolumes: true}, 6)
}

func everyReadIsSparseAndBorrowed(t *testing.T, cfg Config, volumeRangeRounds int) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", cfg)
	const size = 6
	v, _ := a.CreateVolume("v", size)
	// Block histories:
	//   0 never written until the last stages
	//   1 written before the snapshot, untouched until it is gone
	//   2 written, snapshotted, overwritten
	//   3 unwritten at the snapshot, written after
	//   4 written, snapshotted, overwritten twice under the snapshot
	//   5 never written (range tail)
	var snap *Snapshot
	stages := []struct {
		name string
		do   func(p *sim.Proc)
		// written reports which blocks the volume / the snapshot hold after
		// the stage (the snapshot column is nil while there is none).
		volume, snapshot []bool
	}{
		{"initial writes", func(p *sim.Proc) {
			for _, b := range []int64{1, 2, 4} {
				v.Write(p, b, block(a, byte(0x10+b)))
			}
		}, []bool{false, true, true, false, true, false}, nil},
		{"overwrite with no snapshot", func(p *sim.Proc) {
			v.Write(p, 2, block(a, 0x1F))
		}, []bool{false, true, true, false, true, false}, nil},
		{"snapshot then overwrite", func(p *sim.Proc) {
			snap, _ = a.CreateSnapshot("s", "v")
			for _, b := range []int64{2, 3, 4} {
				v.Write(p, b, block(a, byte(0x20+b)))
			}
		}, []bool{false, true, true, true, true, false}, []bool{false, true, true, false, true, false}},
		{"second overwrite under the snapshot", func(p *sim.Proc) {
			v.Write(p, 4, block(a, 0x44))
			v.Write(p, 0, block(a, 0x40))
		}, []bool{true, true, true, true, true, false}, []bool{false, true, true, false, true, false}},
		{"snapshot deleted then overwrite", func(p *sim.Proc) {
			if err := a.DeleteSnapshot("s"); err != nil {
				t.Error(err)
			}
			snap = nil
			for b := int64(0); b < 3; b++ {
				v.Write(p, b, block(a, byte(0x50+b)))
			}
		}, []bool{true, true, true, true, true, false}, nil},
	}

	type borrowed struct {
		stage string
		block int
		slice []byte
		was   []byte
	}
	var held []borrowed

	// charged runs fn and checks the simulated time (in rounds of the read
	// latency) and read ops it cost.
	charged := func(p *sim.Proc, what string, rounds, blocks int, fn func()) {
		reads, t0 := a.ReadOps(), p.Now()
		fn()
		want := time.Duration(rounds) * ReadLatency
		if d, n := p.Now()-t0, a.ReadOps()-reads; d != want || n != int64(blocks) {
			t.Errorf("%s charged %v and %d read ops, want %v and %d", what, d, n, want, blocks)
		}
	}
	check := func(p *sim.Proc, stage, who string, r reader, rangeRounds int, written []bool) {
		var ranged [][]byte
		charged(p, stage+": "+who+".ReadRange", rangeRounds, size, func() {
			var err error
			if ranged, err = r.ReadRange(p, 0, size); err != nil {
				t.Fatalf("%s: %s.ReadRange: %v", stage, who, err)
			}
		})
		if (ranged == nil) != !slices.Contains(written, true) {
			t.Errorf("%s: %s.ReadRange returned nil=%v with written blocks %v", stage, who, ranged == nil, written)
		}
		for b := 0; b < size; b++ {
			var one, peeked []byte
			charged(p, stage+": "+who+".Read", 1, 1, func() { one, _ = r.Read(p, int64(b)) })
			charged(p, stage+": "+who+".Peek", 0, 0, func() { peeked = r.Peek(int64(b)) })
			rangedB := rangeBlock(ranged, b)
			for how, got := range map[string][]byte{"Read": one, "Peek": peeked, "ReadRange": rangedB} {
				if (got != nil) != written[b] {
					t.Errorf("%s: %s.%s block %d: nil=%v but written=%v", stage, who, how, b, got == nil, written[b])
				}
				if got == nil || rangedB == nil {
					continue
				}
				if &got[0] != &rangedB[0] || len(got) != a.Config().BlockSize {
					t.Errorf("%s: %s.%s block %d is not the slice ReadRange borrowed: a copy was made", stage, who, how, b)
				}
			}
			if rangedB != nil {
				held = append(held, borrowed{stage + "/" + who, b, rangedB, bytes.Clone(rangedB)})
			}
		}
	}

	env.Process("driver", func(p *sim.Proc) {
		fresh, _ := a.CreateVolume("fresh", size)
		freshSnap, _ := a.CreateSnapshot("fresh-s", "fresh")
		none := make([]bool, size)
		check(p, "nothing written", "volume", fresh, volumeRangeRounds, none)
		check(p, "nothing written", "snapshot", freshSnap, 1, none)
		for _, st := range stages {
			st.do(p)
			check(p, st.name, "volume", v, volumeRangeRounds, st.volume)
			if snap != nil {
				check(p, st.name, "snapshot", snap, 1, st.snapshot)
			}
			for _, h := range held {
				if !bytes.Equal(h.slice, h.was) {
					t.Fatalf("after %q: block %d borrowed at %q changed from %x to %x",
						st.name, h.block, h.stage, h.was[0], h.slice[0])
				}
			}
		}
	})
	env.Run(0)
	if len(held) == 0 {
		t.Fatal("no block was ever borrowed")
	}
}

// rangeBlock indexes a ReadRange result, which is nil as a whole when no block
// in the range was written.
func rangeBlock(ranged [][]byte, b int) []byte {
	if ranged == nil {
		return nil
	}
	return ranged[b]
}

// A steady-state single-block read allocates nothing — no block, no result
// slice — on a volume or on a snapshot, for a block the snapshot preserved and
// for one it still shares with its parent.
func TestSingleBlockReadsDoNotAllocate(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	for b := int64(0); b < 2; b++ {
		v.Poke(b, block(a, 0x01))
	}
	snap, _ := a.CreateSnapshot("s", "v")
	v.Poke(0, block(a, 0x02)) // block 0 preserved, block 1 shared, 2..3 unwritten
	for name, r := range map[string]reader{"volume": v, "snapshot": snap} {
		i := int64(0)
		env.Process("reader:"+name, func(p *sim.Proc) {
			for ; ; i++ {
				if _, err := r.Read(p, i%4); err != nil {
					t.Error(err)
					return
				}
			}
		})
		advance := func() { env.Run(env.Now() + 64*ReadLatency) }
		advance() // warm up: the process and its timer exist
		if n := testing.AllocsPerRun(10, advance); n != 0 {
			t.Errorf("%s.Read allocates %v per 64 reads, want 0", name, n)
		}
		if n := testing.AllocsPerRun(10, func() { r.Peek(i % 4) }); n != 0 {
			t.Errorf("%s.Peek allocates %v, want 0", name, n)
		}
	}
}

// A borrowed range must survive the replication apply paths too: the backup
// volume is written by InstallDelta/Apply/Poke, not Write.
func TestBorrowedBlocksSurviveApplyPaths(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 3)
	env.Process("driver", func(p *sim.Proc) {
		for b := int64(0); b < 3; b++ {
			v.Poke(b, block(a, 0x01))
		}
		got, _ := v.ReadRange(p, 0, 3)
		v.InstallDelta(0, block(a, 0x02))
		v.Apply(p, 1, block(a, 0x02))
		v.Poke(2, block(a, 0x02))
		for b, blk := range got {
			if blk[0] != 0x01 {
				t.Errorf("block %d borrowed before the overwrite now reads %x", b, blk[0])
			}
		}
	})
	env.Run(time.Second)
}

// InstallDelta adopts the journal record's Data, which is the primary's
// stored block: after the install both sites hold one slice. Overwriting the
// block at either site must install a fresh slice and leave every other
// holder — the other site, the record, a backup-side snapshot — its bytes.
func TestAdoptedRecordBlockIsNeverWrittenInto(t *testing.T) {
	env := sim.NewEnv(1)
	main := NewArray(env, "main", Config{})
	backup := NewArray(env, "backup", Config{})
	pv, _ := main.CreateVolume("v", 4)
	bv, _ := backup.CreateVolume("v", 4)
	j := journalOn(t, main, "cg", "v")
	env.Process("driver", func(p *sim.Proc) {
		if _, err := pv.Write(p, 0, block(main, 0x01)); err != nil {
			t.Error(err)
			return
		}
		rec := j.TryTakeInto(nil, 1)[0]
		if err := bv.InstallDelta(rec.Block, rec.Data); err != nil {
			t.Error(err)
			return
		}
		if &bv.Peek(0)[0] != &pv.Peek(0)[0] {
			t.Error("InstallDelta copied the record's block; the hand-over rule is not exercised")
		}
		snap, err := backup.CreateSnapshot("s", "v")
		if err != nil {
			t.Error(err)
			return
		}
		pv.Write(p, 0, block(main, 0x02)) // primary overwrites: backup, record, snapshot keep 01
		for name, got := range map[string][]byte{"backup": bv.Peek(0), "record": rec.Data, "snapshot": snap.Peek(0)} {
			if !bytes.Equal(got, block(main, 0x01)) {
				t.Errorf("%s reads %x after the primary's overwrite, want 01", name, got[0])
			}
		}
		next := j.TryTakeInto(nil, 1)[0]
		bv.InstallDelta(next.Block, next.Data) // backup overwrites under its snapshot
		bv.Apply(p, 0, block(backup, 0x03))    // and again through the timed path
		pv.Write(p, 0, block(main, 0x04))
		for name, tc := range map[string]struct {
			got  []byte
			want byte
		}{
			"snapshot":      {snap.Peek(0), 0x01},
			"first record":  {rec.Data, 0x01},
			"second record": {next.Data, 0x02},
			"backup":        {bv.Peek(0), 0x03},
			"primary":       {pv.Peek(0), 0x04},
		} {
			if !bytes.Equal(tc.got, block(main, tc.want)) {
				t.Errorf("%s reads %x, want %02x", name, tc.got[0], tc.want)
			}
		}
	})
	env.Run(time.Second)
}

// Write is WriteOwned of a copy: the two cost the same simulated time and move
// every counter and the journal alike, and differ only in whose slice ends up
// stored (and logged) — the caller's own, or a copy the caller may scribble past.
func TestWriteOwnedIsWriteMinusTheCopy(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	v, _ := a.CreateVolume("v", 4)
	j := journalOn(t, a, "cg", "v")
	env.Process("driver", func(p *sim.Proc) {
		kept, owned := block(a, 0x01), block(a, 0x02)
		ack1, c1 := measureWrite(t, p, v, j, func() (Ack, error) { return v.Write(p, 0, kept) })
		ack2, c2 := measureWrite(t, p, v, j, func() (Ack, error) { return v.WriteOwned(p, 1, owned) })
		kept[0] = 0xFF
		if c1 != c2 || ack2.GlobalSeq != ack1.GlobalSeq+1 {
			t.Fatalf("Write cost %+v acked %+v; WriteOwned cost %+v acked %+v", c1, ack1, c2, ack2)
		}
		recs := j.TryTakeInto(nil, 2)
		if len(recs) != 2 || recs[0].GlobalSeq != ack1.GlobalSeq || recs[1].GlobalSeq != ack2.GlobalSeq {
			t.Fatalf("journaled %d records for acks %d, %d", len(recs), ack1.GlobalSeq, ack2.GlobalSeq)
		}
		if &v.Peek(0)[0] == &kept[0] || v.Peek(0)[0] != 0x01 || &recs[0].Data[0] != &v.Peek(0)[0] {
			t.Fatal("Write must store and log one copy of the caller's buffer")
		}
		if &v.Peek(1)[0] != &owned[0] || &recs[1].Data[0] != &owned[0] {
			t.Fatal("WriteOwned must store and log the caller's slice itself")
		}
		v.SetReadOnly(true)
		if _, err := v.WriteOwned(p, 2, block(a, 0x03)); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("WriteOwned to a read-only volume: %v", err)
		}
	})
	env.Run(time.Second)
}

// benchRead is the read layer benchmark: one single-block read per op over a
// fully written 512-block volume, by a process that does nothing else.
func benchRead(b *testing.B, snapshot bool) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	v, _ := a.CreateVolume("v", 512)
	for i := int64(0); i < 512; i++ {
		v.Poke(i, block(a, byte(i)))
	}
	var r reader = v
	if snapshot {
		s, err := a.CreateSnapshot("s", "v")
		if err != nil {
			b.Fatal(err)
		}
		for i := int64(0); i < 512; i += 2 { // half preserved, half shared with the parent
			v.Poke(i, block(a, 0xFF))
		}
		r = s
	}
	env.Process("reader", func(p *sim.Proc) {
		for i := int64(0); ; i++ {
			if _, err := r.Read(p, i%512); err != nil {
				b.Error(err)
				return
			}
		}
	})
	advance := func(n int) { env.Run(env.Now() + time.Duration(n)*ReadLatency) }
	advance(512)
	b.ReportAllocs()
	b.ResetTimer()
	advance(b.N)
}

func BenchmarkVolumeRead(b *testing.B)   { benchRead(b, false) }
func BenchmarkSnapshotRead(b *testing.B) { benchRead(b, true) }
