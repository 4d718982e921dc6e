package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

// ReadRange is sparse (nil <=> never written) and borrowed (a written block
// is the stored slice, which no later write may change). The table walks a
// volume and a snapshot of it through every block history the system
// produces; after each stage both readers' ranges must equal per-block Read,
// charge what count Reads charge, and every slice borrowed at an earlier
// stage must still hold the bytes it held then.
func TestReadRangeSparseBorrowedAndEqualToRead(t *testing.T) {
	env, a := newTestArray(t)
	const size = 6
	v, _ := a.CreateVolume("v", size)
	// Block histories:
	//   0 never written
	//   1 written before the snapshot, untouched after
	//   2 written, snapshotted, overwritten
	//   3 unwritten at the snapshot, written after
	//   4 written, snapshotted, overwritten, then restored
	//   5 never written (range tail)
	var snap *Snapshot
	stages := []struct {
		name string
		do   func(p *sim.Proc)
		// written reports which blocks the volume / the snapshot hold after
		// the stage (the snapshot column is nil before it exists).
		volume, snapshot []bool
	}{
		{"initial writes", func(p *sim.Proc) {
			for _, b := range []int64{1, 2, 4} {
				v.Write(p, b, block(a, byte(0x10+b)))
			}
		}, []bool{false, true, true, false, true, false}, nil},
		{"snapshot then overwrite", func(p *sim.Proc) {
			snap, _ = a.CreateSnapshot("s", "v")
			for _, b := range []int64{2, 3, 4} {
				v.Write(p, b, block(a, byte(0x20+b)))
			}
		}, []bool{false, true, true, true, true, false}, []bool{false, true, true, false, true, false}},
		{"restore", func(p *sim.Proc) {
			if err := a.RestoreSnapshot(p, "s"); err != nil {
				t.Error(err)
			}
		}, []bool{false, true, true, false, true, false}, []bool{false, true, true, false, true, false}},
		{"write after restore", func(p *sim.Proc) {
			v.Write(p, 4, block(a, 0x44))
			v.Write(p, 0, block(a, 0x40))
		}, []bool{true, true, true, false, true, false}, []bool{false, true, true, false, true, false}},
	}

	type borrowed struct {
		stage string
		block int
		slice []byte
		was   []byte
	}
	var held []borrowed

	type rangeReader interface {
		Read(p *sim.Proc, block int64) ([]byte, error)
		ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error)
	}
	check := func(p *sim.Proc, stage, who string, r rangeReader, written []bool) {
		reads := a.ReadOps()
		t0 := p.Now()
		got, err := r.ReadRange(p, 0, size)
		if err != nil {
			t.Fatalf("%s: %s.ReadRange: %v", stage, who, err)
		}
		if d, n := p.Now()-t0, a.ReadOps()-reads; d != size*a.Config().ReadLatency || n != size {
			t.Errorf("%s: %s.ReadRange charged %v and %d read ops, want %v and %d",
				stage, who, d, n, size*a.Config().ReadLatency, size)
		}
		for b := 0; b < size; b++ {
			want, _ := r.Read(p, int64(b))
			if (got[b] != nil) != written[b] {
				t.Errorf("%s: %s block %d: nil=%v but written=%v", stage, who, b, got[b] == nil, written[b])
			}
			if got[b] == nil {
				if !bytes.Equal(want, make([]byte, len(want))) {
					t.Errorf("%s: %s block %d is nil in the range but Read returns data", stage, who, b)
				}
				continue
			}
			if !bytes.Equal(got[b], want) {
				t.Errorf("%s: %s block %d: range %x..., Read %x...", stage, who, b, got[b][0], want[0])
			}
			held = append(held, borrowed{stage + "/" + who, b, got[b], bytes.Clone(got[b])})
		}
	}

	env.Process("driver", func(p *sim.Proc) {
		for _, st := range stages {
			st.do(p)
			check(p, st.name, "volume", v, st.volume)
			if snap != nil {
				check(p, st.name, "snapshot", snap, st.snapshot)
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
		rec := j.Take(p, 1)[0]
		if err := bv.InstallDelta(rec.Block, rec.Data); err != nil {
			t.Error(err)
			return
		}
		if &bv.blocks[0][0] != &pv.blocks[0][0] {
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
		next := j.Take(p, 1)[0]
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
