package db

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// logImage returns a formatted volume at log epoch 2 whose WAL holds `live`
// live blocks (block i: one committed single-row transaction) followed by
// the blocks in after. With zeroed the whole volume is written to zeroes
// first; without it the rest of the region was never written and reads nil.
// torn corrupts the last live block's commit record.
func logImage(tb testing.TB, p *sim.Proc, a *storage.Array, id storage.VolumeID, live int, after [][]byte, zeroed, torn bool) *storage.Volume {
	var vol *storage.Volume
	if zeroed {
		vol = allocVolume(tb, a, id, nil)
	} else {
		var err error
		if vol, err = a.CreateVolume(id, 256); err != nil {
			tb.Fatal(err)
		}
	}
	d, err := Open(p, string(id), vol, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Checkpoint(p); err != nil { // epoch 2: epoch-1 blocks are a stale generation
		tb.Fatal(err)
	}
	for i := range live {
		blk := logBlock(vol.BlockSize(), d.epoch, uint32(i))
		if torn && i == live-1 {
			blk[commitAt+10] ^= 0xFF
		}
		if err := vol.Poke(d.walBase+int64(i), blk); err != nil {
			tb.Fatal(err)
		}
	}
	for i, blk := range after {
		if err := vol.Poke(d.walBase+int64(live+i), blk); err != nil {
			tb.Fatal(err)
		}
	}
	return vol
}

// logBlock is WAL block seq of epoch holding transaction seq+1's one row and,
// from byte commitAt, its commit record.
func logBlock(blockSize int, epoch, seq uint32) []byte {
	tx := uint64(seq) + 1
	blk := make([]byte, blockSize)
	wal.PutBlockHeader(blk, epoch, seq)
	recs := wal.AppendEncode(blk[:wal.BlockHeaderSize], wal.Record{Type: wal.TypeUpdate, Epoch: epoch, TxID: tx, Key: tx, Val: make([]byte, 16)})
	wal.AppendEncode(recs, wal.Record{Type: wal.TypeCommit, Epoch: epoch, TxID: tx})
	return blk
}

const commitAt = wal.BlockHeaderSize + wal.Overhead + 16

// doubling returns the chunks the log read issues on a region of w blocks
// whose live log is l blocks long: 1, 2, 4, … capped at what is left, up to
// and including the chunk that holds block l, the first not live.
func doubling(l, w int) (chunks []int) {
	for read, c := 0, 1; read < w && read <= l; c *= 2 {
		c = min(c, w-read)
		chunks = append(chunks, c)
		read += c
	}
	return chunks
}

// logRecords is the valid prefix of a log region's first n blocks as a list:
// the records wal.ValidPrefix counts, read back by wal.Walk.
func logRecords(n int, block func(i int) []byte, epoch uint32) ([]wal.Record, error) {
	count, err := wal.ValidPrefix(n, block, epoch)
	var recs []wal.Record
	wal.Walk(count, block, epoch, func(rec wal.Record) bool {
		recs = append(recs, rec)
		return true
	})
	return recs, err
}

// The bounded log read holds the valid prefix of the whole region, read in
// doubling chunks that stop where the log ends: the same records byte for byte
// and the same error, for reads the doubling rule predicts — none past the
// chunk that ends the log, none past the region — in that rule's rounds on the
// idle array.
func TestLogReadStopsWhereTheLogEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	garbage := make([]byte, 4096)
	rng.Read(garbage)
	stale := func(seq uint32) []byte { return logBlock(4096, 1, seq) }
	type logCase struct {
		name   string
		live   int
		after  [][]byte
		zeroed bool
		torn   bool
	}
	var cases []logCase
	for _, l := range []int{0, 1, 2, 3, 7, 8, 9, 63, 64} {
		cases = append(cases, logCase{name: fmt.Sprint("live=", l), live: l, zeroed: true})
	}
	cases = append(cases,
		logCase{name: "torn tail", live: 5, zeroed: true, torn: true},
		logCase{name: "stale-epoch block after the prefix", live: 6, after: [][]byte{stale(6), stale(7)}, zeroed: true},
		logCase{name: "nil never-written block", live: 4},
		logCase{name: "garbage after a stale block", live: 2, after: [][]byte{stale(2), garbage, stale(4)}},
	)
	inProcess(func(p *sim.Proc, a *storage.Array) {
		lat := storage.ReadLatency
		for i, c := range cases {
			vol := logImage(t, p, a, storage.VolumeID(fmt.Sprint("log", i)), c.live, c.after, c.zeroed, c.torn)
			var r reader
			if err := r.open(p, c.name, vol, Config{}); err != nil {
				t.Fatal(err)
			}
			w := r.cfg.WALBlocks
			want, wantErr := logRecords(w, func(i int) []byte { return vol.Peek(r.walBase + int64(i)) }, r.epoch)
			reads, t0 := vol.Reads(), p.Now()
			log, err := r.readLog(p)
			reads, took := vol.Reads()-reads, p.Now()-t0
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := logRecords(len(log), func(i int) []byte { return log[i].Data }, r.epoch)

			if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s: read %d records (%v); the region's valid prefix %d (%v)", c.name, len(got), gotErr, len(want), wantErr)
			}
			if c.torn != errors.Is(gotErr, wal.ErrCorrupt) {
				t.Errorf("%s: error %v, torn %v", c.name, gotErr, c.torn)
			}
			var wantReads int64
			var wantTime time.Duration
			for _, n := range doubling(c.live, w) {
				wantReads += int64(n)
				wantTime += time.Duration((n+7)/8) * lat
			}
			if reads != wantReads || reads > int64(min(2*c.live+1, w)) || took != wantTime {
				t.Errorf("%s: %d blocks read in %v; the doubling rule reads %d (at most min(2L+1, %d)) in %v",
					c.name, reads, took, wantReads, w, wantTime)
			}
			for i, io := range r.vec {
				if io.Block != r.walBase+int64(i) {
					t.Errorf("%s: read %d was block %d, want %d", c.name, i, io.Block, r.walBase+int64(i))
				}
			}
			if live, read := r.LogBlocks(); live != c.live || int64(read) != reads || len(r.vec) != read {
				t.Errorf("%s: LogBlocks %d live / %d read, vector %d; want %d / %d", c.name, live, read, len(r.vec), c.live, reads)
			}
		}
	})
}

// What reading to the log's end costs at the two extremes: a full 64-block log
// on the idle 8-slot array takes 11 rounds (chunks 1, 2, 4, 8, 16, 32, 1) where
// the whole region as one range took 8; an empty log on an isolated volume, a
// queue of one, takes one block's latency where the range took 64.
func TestLogReadPricesAtTheExtremes(t *testing.T) {
	inProcess(func(p *sim.Proc, a *storage.Array) {
		d, err := Open(p, "full", logImage(t, p, a, "full", 64, nil, true, false), Config{})
		if err != nil {
			t.Fatal(err)
		}
		lat := storage.ReadLatency
		if live, read := d.LogBlocks(); d.LogReadTime() != 11*lat || live != 64 || read != 64 || d.RecoveredTxns() != 64 {
			t.Errorf("full log: %d live / %d read in %v, %d transactions; want 64 / 64 in %v, 64", live, read, d.LogReadTime(), d.RecoveredTxns(), 11*lat)
		}
	})
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "iso", storage.Config{IsolatedVolumes: true})
	env.Process("t", func(p *sim.Proc) {
		vol, err := a.CreateVolume("v", 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, "fresh", vol, Config{}); err != nil {
			t.Fatal(err)
		}
		d, err := Open(p, "empty", vol, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if live, read := d.LogBlocks(); d.LogReadTime() != storage.ReadLatency || live != 0 || read != 1 {
			t.Errorf("empty log on an isolated volume: %d live / %d read in %v; want 0 / 1 in %v", live, read, d.LogReadTime(), storage.ReadLatency)
		}
	})
	env.Run(0)
}
