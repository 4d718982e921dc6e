package storage

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// sameBlock reports whether two stored blocks read the same: a block is its
// prefix followed by zeroes, and nil (never written) matches only nil.
func sameBlock(x, y []byte) bool {
	if (x == nil) != (y == nil) {
		return false
	}
	if len(x) > len(y) {
		x, y = y, x
	}
	return bytes.Equal(x, y[:len(x)]) && len(bytes.TrimRight(y[len(x):], "\x00")) == 0
}

// writeCost is what one host write moved: simulated time, the volume's and
// the array's write counts, bytes written and records journaled.
type writeCost struct {
	took                   time.Duration
	writes, ops, bytes, jn int64
}

// measureWrite runs one write to v, journaled to j, and returns its ack and
// what it moved.
func measureWrite(t *testing.T, p *sim.Proc, v *Volume, j *Journal, write func() (Ack, error)) (Ack, writeCost) {
	t.Helper()
	a := v.array
	t0, w, o, b, n := p.Now(), v.Writes(), a.WriteOps(), a.BytesWritten(), j.Appended()
	ack, err := write()
	if err != nil {
		t.Fatal(err)
	}
	return ack, writeCost{p.Now() - t0, v.Writes() - w, a.WriteOps() - o, a.BytesWritten() - b, j.Appended() - n}
}

// Write stores a copy of the shortest prefix that reads as the caller's
// buffer — one past its last non-zero byte, at least one byte — and the
// journal record's Data is that stored slice. It costs the simulated time and
// moves every counter and the journal exactly as WriteOwned of the whole
// buffer does.
func TestWriteStoresShortestPrefix(t *testing.T) {
	const size, large = 4096, 128 << 10
	stamped := func(size int, seq uint64) []byte {
		buf := make([]byte, size)
		binary.BigEndian.PutUint64(buf, seq)
		return buf
	}
	lastByte := func(size int) []byte {
		buf := make([]byte, size)
		buf[size-1] = 0x01
		return buf
	}
	for _, c := range []struct {
		name        string
		buf         []byte
		len, maxCap int
	}{
		{"stamped 4 KiB buffer", stamped(size, 1), 8, 8},
		{"stamp 256", stamped(size, 256), 7, 8},
		{"all zeroes", make([]byte, size), 1, 8},
		{"last byte non-zero", lastByte(size), size, size},
		{"stamped 128 KiB buffer", stamped(large, 1), 8, 8},
		{"last byte of 128 KiB non-zero", lastByte(large), large, large},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			a := NewArray(env, "main", Config{BlockSize: len(c.buf)})
			v, _ := a.CreateVolume("v", 4)
			j := journalOn(t, a, "cg", "v")
			var ack1, ack2 Ack
			env.Process("driver", func(p *sim.Proc) {
				var c1, c2 writeCost
				ack1, c1 = measureWrite(t, p, v, j, func() (Ack, error) { return v.Write(p, 0, c.buf) })
				ack2, c2 = measureWrite(t, p, v, j, func() (Ack, error) { return v.WriteOwned(p, 1, bytes.Clone(c.buf)) })
				if c1 != c2 || ack2.GlobalSeq != ack1.GlobalSeq+1 {
					t.Errorf("Write cost %+v acked %+v; WriteOwned cost %+v acked %+v", c1, ack1, c2, ack2)
				}
			})
			env.Run(time.Second)
			got, recs := v.Peek(0), j.TryTakeInto(nil, 2)
			switch {
			case len(got) != c.len || cap(got) > c.maxCap:
				t.Fatalf("stored %d bytes of capacity %d, want %d of at most %d", len(got), cap(got), c.len, c.maxCap)
			case !sameBlock(got, c.buf):
				t.Fatalf("stored %x, which does not read as the buffer written", got)
			case &got[0] == &c.buf[0]:
				t.Fatal("the stored block is the caller's buffer")
			case len(recs) != 2 || len(recs[0].Data) != len(got) || &recs[0].Data[0] != &got[0]:
				t.Fatal("the journal record's Data is not the stored block")
			case recs[0].GlobalSeq != ack1.GlobalSeq || recs[1].GlobalSeq != ack2.GlobalSeq:
				t.Fatalf("records carry seqs %d, %d; the writes were acked %d, %d", recs[0].GlobalSeq, recs[1].GlobalSeq, ack1.GlobalSeq, ack2.GlobalSeq)
			case !slices.Equal(v.WrittenBlocks(), []int64{0, 1}):
				t.Fatalf("written blocks %v, want [0 1]", v.WrittenBlocks())
			}
		})
	}
}

// shortestPrefix agrees with trimming trailing zeroes (kept at one byte) for
// every length up to three words and for 512 B and 4 KiB, each with the last
// non-zero byte at every position: that covers every probe boundary (the last
// byte, the first word and its last byte, each halving point) and the bytes
// either side of it, counted from either end.
func TestShortestPrefixMatchesTrim(t *testing.T) {
	check := func(n, last int) {
		t.Helper()
		data := make([]byte, n)
		for i := 0; i <= last; i++ {
			data[i] = byte(i%3) * 0x80 // zeroes inside the prefix too
		}
		if last >= 0 {
			data[last] = 0x01
		}
		want := max(len(bytes.TrimRight(data, "\x00")), 1)
		if got, _ := shortestPrefix(data); got != want {
			t.Fatalf("shortestPrefix of %d bytes, last non-zero at %d = %d, want %d", n, last, got, want)
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 512, 4096} {
		for last := -1; last < n; last++ {
			check(n, last)
		}
	}
}

// FuzzShortestPrefix holds shortestPrefix to bytes.TrimRight on any buffer.
func FuzzShortestPrefix(f *testing.F) {
	for _, seed := range [][]byte{{0}, {1}, {0, 0x80}, {0x80, 0x80, 0}, make([]byte, 17), append(make([]byte, 8), 1)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		want := max(len(bytes.TrimRight(data, "\x00")), 1)
		if got, _ := shortestPrefix(data); got != want {
			t.Fatalf("shortestPrefix(%x) = %d, want %d", data, got, want)
		}
	})
}

// The search's probes span no more bytes than its probe order promises, at
// every block size: a full block settles on its last byte, a stamped one on
// the last byte of its first word, its probes spanning the last byte, all
// between the first word and it, and the word's last byte. A stamp or a block
// that ends in a zero byte halves the first word from there. A search that
// skipped one of those probes, put the middle one anywhere but 8, or compared
// past the zeroes it already knew of, spans more.
func TestShortestPrefixSpan(t *testing.T) {
	for _, size := range []int{512, 4096, 128 << 10} {
		wide := size - 9 // all past the first word but the last byte
		for _, c := range []struct {
			name  string
			fill  byte
			stamp uint64
			span  int // one term per probe
		}{
			{"full", 0xA5, 1, 1},
			{"stamped", 0, 1, 1 + wide + 1},
			{"stamp 256", 0, 256, 1 + wide + 1 + 4 + 2 + 1},
			{"all zeroes", 0, 0, 1 + wide + 1 + 4 + 2},
		} {
			buf := bytes.Repeat([]byte{c.fill}, size)
			binary.BigEndian.PutUint64(buf, c.stamp)
			if _, span := shortestPrefix(buf); span != c.span {
				t.Errorf("%s %d-byte block: probes spanned %d bytes, want %d", c.name, size, span, c.span)
			}
		}
	}
}

// Write copies a short prefix into a room carved from the array's slab,
// capped at its length: consecutive stamped writes are neighbours in one slab,
// an append to one stored block copies rather than reaching the next, and on a
// warm volume 512 stamped writes allocate at most the slabs they fill. A
// full-block write keeps its own allocation.
func TestWriteCarvesShortPrefixes(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, "main", Config{})
	v, _ := a.CreateVolume("v", 512)
	buf := make([]byte, a.Config().BlockSize)
	full := block(a, 0xA5)
	for i := range int64(512) {
		v.Poke(i, full)
	}
	var writes int
	env.Process("writer", func(p *sim.Proc) {
		for ; ; writes++ {
			binary.BigEndian.PutUint64(buf, uint64(writes+1))
			if _, err := v.Write(p, int64(writes%512), buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	perOp := a.Config().WriteLatency
	advance := func(n int) { env.Run(env.Now() + time.Duration(n)*perOp) }

	advance(2)
	first, second := v.Peek(0), v.Peek(1)
	switch {
	case writes != 2:
		t.Fatalf("%d writes ran, want 2", writes)
	case len(first) != 8 || cap(first) != 8 || len(second) != 8 || cap(second) != 8:
		t.Fatalf("stored blocks of len/cap %d/%d and %d/%d, want 8/8", len(first), cap(first), len(second), cap(second))
	case len(a.slab) < 16 || &first[0] != &a.slab[0] || &second[0] != &a.slab[8]:
		t.Error("consecutive stamped writes were not carved side by side from the slab")
	}
	was := bytes.Clone(second)
	if grown := append(first, 0xFF); &grown[0] == &first[0] || !bytes.Equal(second, was) {
		t.Fatalf("an append to one stored block reached its neighbour: %x", second)
	}

	if allocs := testing.AllocsPerRun(1, func() { advance(512) }); allocs > 2 {
		t.Errorf("512 stamped writes on a warm volume allocated %v objects, want at most 2", allocs)
	}

	// The write in flight was carved when it was issued; the next is full.
	buf = bytes.Clone(full) // the writer stamps it: still a full block
	carved, next := len(a.slab), writes+1
	advance(2)
	if got := v.Peek(int64(next % 512)); len(got) != len(full) || cap(got) != len(full) || len(a.slab) != carved {
		t.Fatalf("a full-block write stored len %d cap %d and moved the slab %d -> %d", len(got), cap(got), carved, len(a.slab))
	}
}

// BenchmarkVolumeWrite is the copying door's layer benchmark: one Write per op
// of a 4 KiB buffer carrying the op's sequence in its first 8 bytes, as the
// drain drivers stamp theirs, over zeroes (stamped), over 0xA5 (full), or over
// a first half of 0xA5 and zeroes (half: the last non-zero byte mid-block, a
// shape no workload writes, found by halving).
func BenchmarkVolumeWrite(b *testing.B) {
	for _, c := range []struct {
		name   string
		filled int // leading bytes of 0xA5
	}{{"stamped", 0}, {"full", 4096}, {"half", 2048}} {
		b.Run(c.name, func(b *testing.B) {
			env := sim.NewEnv(1)
			a := NewArray(env, "main", Config{})
			v, _ := a.CreateVolume("v", 512)
			buf := make([]byte, a.Config().BlockSize)
			copy(buf, bytes.Repeat([]byte{0xA5}, c.filled))
			for i := range int64(512) {
				v.Poke(i, buf)
			}
			env.Process("writer", func(p *sim.Proc) {
				for i := range b.N {
					binary.BigEndian.PutUint64(buf, uint64(i+1))
					if _, err := v.Write(p, int64(i%512), buf); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			env.Run(0)
		})
	}
}
