package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{Type: TypeUpdate, Epoch: 3, TxID: 42, Key: 7, Val: []byte("hello")}
	buf := AppendEncode(nil, r)
	if len(buf) != r.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), r.EncodedSize())
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.Type != r.Type || got.Epoch != r.Epoch || got.TxID != r.TxID || got.Key != r.Key || !bytes.Equal(got.Val, r.Val) {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
}

// One record's encoding is pinned byte for byte, checksum included, so a
// change to the format or to Checksum fails here instead of reading every
// existing log as torn. Checksum is CRC-32C (its standard check value is
// pinned too), and a flip of any one bit of the record fails closed.
func TestEncodingKnownAnswer(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum of the CRC-32C check string = %#x, want 0xe3069283", got)
	}
	r := Record{Type: TypeUpdate, Epoch: 3, TxID: 42, Key: 7, Val: []byte("hello")}
	const want = "a5" + "01" + "03000000" + "2a00000000000000" + "0700000000000000" + // magic, type, epoch, txid, key
		"0500" + "68656c6c6f" + "51004a09" // vallen, val, CRC-32C
	enc := AppendEncode(nil, r)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	for bit := range 8 * len(enc) {
		flipped := bytes.Clone(enc)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, _, err := Decode(flipped); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit %d flipped: Decode = %v, want ErrCorrupt", bit, err)
		}
	}
}

func TestDecodePropertyRoundTrip(t *testing.T) {
	f := func(typ bool, epoch uint32, txid, key uint64, val []byte) bool {
		if len(val) > 1000 {
			val = val[:1000]
		}
		r := Record{Type: TypeUpdate, Epoch: epoch, TxID: txid, Key: key, Val: val}
		if typ {
			r.Type = TypeCommit
		}
		got, n, err := Decode(AppendEncode(nil, r))
		return err == nil && n == r.EncodedSize() &&
			got.Type == r.Type && got.Epoch == r.Epoch &&
			got.TxID == r.TxID && got.Key == r.Key && bytes.Equal(got.Val, r.Val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEndOfLog(t *testing.T) {
	if _, _, err := Decode(nil); !errors.Is(err, ErrEndOfLog) {
		t.Fatalf("nil buf: %v", err)
	}
	if _, _, err := Decode(make([]byte, 100)); !errors.Is(err, ErrEndOfLog) {
		t.Fatalf("zero buf: %v", err)
	}
}

func TestDecodeCorruptions(t *testing.T) {
	r := Record{Type: TypeCommit, Epoch: 1, TxID: 9}
	good := AppendEncode(nil, r)

	bad := append([]byte(nil), good...)
	bad[0] = 0x77
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[1] = 99
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad type: %v", err)
	}

	// Flip a payload byte: checksum must catch it.
	bad = append([]byte(nil), good...)
	bad[10] ^= 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checksum: %v", err)
	}

	// Torn write: only half the record present.
	if _, _, err := Decode(good[:len(good)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn: %v", err)
	}
	if _, _, err := Decode(good[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn header: %v", err)
	}
}

func TestDecodeCorruptionPropertyNeverPanics(t *testing.T) {
	// Property: arbitrary mutations are either decoded (if they miss the
	// record) or rejected, never mis-decoded into a wrong payload.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Record{Type: TypeUpdate, Epoch: 5, TxID: rng.Uint64(), Key: rng.Uint64(), Val: []byte("payload")}
		buf := AppendEncode(nil, r)
		i := rng.Intn(len(buf))
		delta := byte(rng.Intn(255) + 1)
		buf[i] ^= delta
		got, _, err := Decode(buf)
		if err != nil {
			return true // rejected, fine
		}
		// Astronomically unlikely (CRC collision); treat as failure so we
		// hear about it.
		return got.TxID == r.TxID && bytes.Equal(got.Val, r.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	blk := make([]byte, 64)
	PutBlockHeader(blk, 7, 42)
	e, s, ok := ReadBlockHeader(blk)
	if !ok || e != 7 || s != 42 {
		t.Fatalf("header = %d/%d ok=%v", e, s, ok)
	}
	if _, _, ok := ReadBlockHeader(make([]byte, 64)); ok {
		t.Fatal("zero block parsed as WAL block")
	}
	if _, _, ok := ReadBlockHeader([]byte{1}); ok {
		t.Fatal("short block parsed as WAL block")
	}
}

func TestLiveBlockNeedsEpochAndSeq(t *testing.T) {
	blk := make([]byte, 64)
	PutBlockHeader(blk, 7, 3)
	for _, c := range []struct {
		block      []byte
		epoch, seq uint32
		want       bool
	}{
		{blk, 7, 3, true},
		{blk, 6, 3, false}, // stale generation
		{blk, 7, 2, false}, // not the next block
		{make([]byte, 64), 0, 0, false},
		{nil, 0, 0, false}, // never written
	} {
		if got := LiveBlock(c.block, c.epoch, c.seq); got != c.want {
			t.Errorf("LiveBlock(%d bytes, epoch %d, seq %d) = %v, want %v", len(c.block), c.epoch, c.seq, got, c.want)
		}
	}
}

func TestBlockBuilderPacksAndPads(t *testing.T) {
	b := NewBlockBuilder(128, 1, 0)
	r := Record{Type: TypeUpdate, Epoch: 1, TxID: 1, Key: 1, Val: make([]byte, 20)} // 48 bytes
	for i := 0; i < 3; i++ {                                                        // 144 bytes > 116 usable: third spills
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	blocks := b.Blocks()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	recs0, ok, err := ScanBlock(blocks[0], 1, 0)
	if err != nil || len(recs0) != 2 || !ok {
		t.Fatalf("block0: %d recs ok=%v err=%v", len(recs0), ok, err)
	}
	recs1, ok, err := ScanBlock(blocks[1], 1, 1)
	if err != nil || len(recs1) != 1 || !ok {
		t.Fatalf("block1: %d recs ok=%v err=%v", len(recs1), ok, err)
	}
	if rest := b.Blocks(); rest != nil {
		t.Fatalf("builder not reset: %d more blocks", len(rest))
	}
	if err := b.Append(r); err != nil {
		t.Fatal(err)
	}
	if _, seq, ok := ReadBlockHeader(b.Blocks()[0]); !ok || seq != 2 {
		t.Fatalf("next block's seq = %d ok=%v, want 2", seq, ok)
	}
}

func TestBlockBuilderRejectsOversized(t *testing.T) {
	b := NewBlockBuilder(64, 1, 0)
	err := b.Append(Record{Type: TypeUpdate, Val: make([]byte, 100)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanBlockStopsAtStaleEpochRecord(t *testing.T) {
	var buf []byte
	buf = AppendEncode(buf, Record{Type: TypeUpdate, Epoch: 2, TxID: 1, Key: 1})
	buf = AppendEncode(buf, Record{Type: TypeUpdate, Epoch: 1, TxID: 9, Key: 9}) // stale
	block := make([]byte, 4096)
	PutBlockHeader(block, 2, 0)
	copy(block[BlockHeaderSize:], buf)
	recs, ok, err := ScanBlock(block, 2, 0)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(recs) != 1 || recs[0].TxID != 1 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestScanBlockRejectsWrongSeq(t *testing.T) {
	b := NewBlockBuilder(256, 1, 5)
	b.Append(Record{Type: TypeCommit, Epoch: 1, TxID: 1})
	blk := b.Blocks()[0]
	if _, ok, _ := ScanBlock(blk, 1, 0); ok {
		t.Fatal("accepted block with wrong seq")
	}
	if _, ok, _ := ScanBlock(blk, 2, 5); ok {
		t.Fatal("accepted block with wrong epoch")
	}
	if recs, ok, _ := ScanBlock(blk, 1, 5); !ok || len(recs) != 1 {
		t.Fatal("rejected correct block")
	}
}

// scanRegion scans a whole region held as a slice for its valid prefix: the
// records ValidPrefix counts, read back by Walk into a result sized once to
// that count. The TestScanLog tests scan a log through it.
func scanRegion(region [][]byte, epoch uint32) ([]Record, error) {
	block := func(i int) []byte { return region[i] }
	n, err := ValidPrefix(len(region), block, epoch)
	recs := make([]Record, 0, n)
	Walk(n, block, epoch, func(r Record) bool {
		recs = append(recs, r)
		return true
	})
	return recs, err
}

func TestScanLogAcrossBlocks(t *testing.T) {
	b := NewBlockBuilder(256, 1, 0)
	for i := uint64(0); i < 20; i++ {
		b.Append(Record{Type: TypeUpdate, Epoch: 1, TxID: i, Key: i, Val: make([]byte, 30)})
	}
	blocks := b.Blocks()
	// Pad the region with zero blocks like a fresh WAL area.
	region := append(blocks, make([]byte, 256), make([]byte, 256))
	recs, err := scanRegion(region, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("scanned %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.TxID != uint64(i) {
			t.Fatalf("order broken at %d: %+v", i, r)
		}
	}
}

func TestScanLogStopsAtStaleGeneration(t *testing.T) {
	// Blocks from an earlier epoch sitting past the head must not be
	// scanned, even though their records are individually valid.
	head := NewBlockBuilder(256, 2, 0)
	head.Append(Record{Type: TypeCommit, Epoch: 2, TxID: 1})
	stale := NewBlockBuilder(256, 1, 1)
	for i := 0; i < 5; i++ {
		stale.Append(Record{Type: TypeCommit, Epoch: 1, TxID: 99})
	}
	region := append(head.Blocks(), stale.Blocks()...)
	recs, err := scanRegion(region, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TxID != 1 {
		t.Fatalf("recs = %+v, stale generation leaked into scan", recs)
	}
}

func TestScanLogReportsTornTail(t *testing.T) {
	b := NewBlockBuilder(4096, 1, 0)
	first := Record{Type: TypeUpdate, Epoch: 1, TxID: 1, Key: 1, Val: []byte("ok")}
	b.Append(first)
	b.Append(Record{Type: TypeUpdate, Epoch: 1, TxID: 2, Key: 2, Val: []byte("torn")})
	blk := b.Blocks()[0]
	// Corrupt the second record's payload.
	blk[BlockHeaderSize+first.EncodedSize()+10] ^= 0xFF
	recs, err := scanRegion([][]byte{blk}, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want corrupt", err)
	}
	if len(recs) != 1 || recs[0].TxID != 1 {
		t.Fatalf("prefix before tear = %+v", recs)
	}
}

// A sparse range read hands the scanner nil for never-written blocks. The
// scan must treat them as the zero blocks they stand for: same records, same
// error, wherever the nil blocks sit — tail, whole region, or a hole in
// front of stale blocks.
func TestScanLogNilBlocksScanLikeZeroBlocks(t *testing.T) {
	b := NewBlockBuilder(256, 1, 0)
	for i := uint64(0); i < 12; i++ {
		b.Append(Record{Type: TypeUpdate, Epoch: 1, TxID: i, Key: i, Val: make([]byte, 30)})
	}
	live := b.Blocks()
	stale := NewBlockBuilder(256, 1, uint32(len(live)+1)) // seq continues past a hole
	stale.Append(Record{Type: TypeCommit, Epoch: 1, TxID: 99})
	for name, sparse := range map[string][][]byte{
		"tail":                   append(slices.Clone(live), nil, nil),
		"whole region":           {nil, nil, nil},
		"hole then stale blocks": append(append(slices.Clone(live), nil), stale.Blocks()...),
	} {
		zeroed := slices.Clone(sparse)
		for i, blk := range sparse {
			if blk == nil {
				zeroed[i] = make([]byte, 256)
			}
		}
		got, gotErr := scanRegion(sparse, 1)
		want, wantErr := scanRegion(zeroed, 1)
		if gotErr != wantErr || len(got) != len(want) {
			t.Fatalf("%s: sparse scan = %d records, %v; zeroed scan = %d records, %v",
				name, len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if got[i].TxID != want[i].TxID || !bytes.Equal(got[i].Val, want[i].Val) {
				t.Fatalf("%s: record %d differs: %+v vs %+v", name, i, got[i], want[i])
			}
		}
		if name == "tail" && len(got) != 12 {
			t.Fatalf("tail: scanned %d records, want 12", len(got))
		}
	}
}

// ValidPrefix counts exactly the records a scan decodes: a torn record, a
// record of another epoch and one whose length runs past the block end a
// block uncounted, garbage after a record ends it, and a torn block ends the
// prefix ahead of an intact one. Walk reads back that many, the same ones, so
// a result sized to the count is sized exactly and never regrows.
func TestScanLogSizesItsResultOnce(t *testing.T) {
	intact := func(seq uint32, epochs ...uint32) []byte {
		b := NewBlockBuilder(512, 1, seq)
		for i, e := range epochs {
			b.Append(Record{Type: TypeUpdate, Epoch: e, TxID: uint64(i), Key: 1, Val: make([]byte, 20)})
		}
		return b.Blocks()[0]
	}
	rec := Record{Type: TypeUpdate, Epoch: 1, Val: make([]byte, 20)}
	torn := intact(0, 1, 1, 1)
	torn[BlockHeaderSize+rec.EncodedSize()+30] ^= 0xFF // the second record's value
	overlong := intact(0, 1, 1)
	binary.LittleEndian.PutUint16(overlong[BlockHeaderSize+rec.EncodedSize()+22:], 1000)
	garbage := intact(0, 1)
	garbage[BlockHeaderSize+rec.EncodedSize()] = 0x77
	for _, c := range []struct {
		name    string
		region  [][]byte
		decoded int
		torn    bool
	}{
		{"torn record", [][]byte{torn}, 1, true},
		{"older epoch's record", [][]byte{intact(0, 1, 0, 1)}, 1, false},
		{"older epoch's record, then a live block", [][]byte{intact(0, 1, 0, 1), intact(1, 1, 1)}, 3, false},
		{"length past the block", [][]byte{overlong}, 1, true},
		{"garbage after a record", [][]byte{garbage}, 1, true},
		{"torn block ahead of an intact one", [][]byte{torn, intact(1, 1, 1)}, 1, true},
	} {
		var want []Record
		for i, blk := range c.region {
			recs, _, err := ScanBlock(blk, 1, uint32(i))
			want = append(want, recs...)
			if err != nil {
				break
			}
		}
		recs, err := scanRegion(c.region, 1)
		if len(recs) != c.decoded || cap(recs) != c.decoded || errors.Is(err, ErrCorrupt) != c.torn || !slices.EqualFunc(recs, want, sameRecord) {
			t.Fatalf("%s: %d records in a result of %d, %v; want %d as ScanBlock decodes them, torn %v", c.name, len(recs), cap(recs), err, c.decoded, c.torn)
		}
	}
}

func sameRecord(a, b Record) bool {
	return a.Type == b.Type && a.Epoch == b.Epoch && a.TxID == b.TxID && a.Key == b.Key && bytes.Equal(a.Val, b.Val)
}

// Walk reads no block past the one that holds the last record it is asked
// for, and stops when yield does.
func TestWalkStopsWhereAsked(t *testing.T) {
	b := NewBlockBuilder(256, 1, 0)
	for i := uint64(0); i < 12; i++ {
		b.Append(Record{Type: TypeUpdate, Epoch: 1, TxID: i, Key: i, Val: make([]byte, 30)})
	}
	region := b.Blocks() // 4 records a block
	block := func(i int) []byte {
		if i >= 2 {
			t.Fatalf("Walk of 8 records read block %d", i)
		}
		return region[i]
	}
	seen := 0
	Walk(8, block, 1, func(Record) bool { seen++; return true })
	Walk(8, block, 1, func(r Record) bool { return r.TxID < 5 })
	if seen != 8 {
		t.Fatalf("walked %d records, want 8", seen)
	}
}

func TestScanLogEmptyRegion(t *testing.T) {
	recs, err := scanRegion([][]byte{make([]byte, 512), make([]byte, 512)}, 1)
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestBlockBuilderPropertyNoRecordLoss(t *testing.T) {
	// Property: every appended record comes back from ValidPrefix and Walk, in
	// order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBlockBuilder(512, 7, 0)
		n := rng.Intn(100) + 1
		for i := 0; i < n; i++ {
			r := Record{Type: TypeUpdate, Epoch: 7, TxID: uint64(i), Key: rng.Uint64(), Val: make([]byte, rng.Intn(100))}
			if err := b.Append(r); err != nil {
				return false
			}
		}
		recs, err := scanRegion(b.Blocks(), 7)
		if err != nil || len(recs) != n || cap(recs) != n { // sized exactly, once
			return false
		}
		for i, r := range recs {
			if r.TxID != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
