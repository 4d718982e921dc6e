package db

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// goodSuperblock builds a valid encoded superblock in a block-size buffer.
func goodSuperblock(blockSize int) []byte {
	blk := make([]byte, blockSize)
	binary.LittleEndian.PutUint32(blk[0:4], sbMagic)
	binary.LittleEndian.PutUint16(blk[4:6], sbVersion)
	binary.LittleEndian.PutUint32(blk[6:10], 3)     // epoch
	binary.LittleEndian.PutUint32(blk[10:14], 64)   // walBlocks
	binary.LittleEndian.PutUint64(blk[14:22], 1000) // nextTxID
	binary.LittleEndian.PutUint32(blk[22:26], wal.Checksum(blk[0:22]))
	return blk
}

func TestDecodeSuperblockCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(blk []byte) []byte
		ok     bool
	}{
		{"valid", func(blk []byte) []byte { return blk }, true},
		{"short block", func(blk []byte) []byte { return blk[:sbSize-1] }, false},
		{"empty block", func(blk []byte) []byte { return nil }, false},
		{"bad magic", func(blk []byte) []byte {
			binary.LittleEndian.PutUint32(blk[0:4], 0xDEADBEEF)
			return blk
		}, false},
		{"zeroed magic (unformatted)", func(blk []byte) []byte {
			clear(blk[0:4])
			return blk
		}, false},
		{"bad crc", func(blk []byte) []byte {
			blk[22] ^= 0xFF
			return blk
		}, false},
		{"payload flipped under valid crc field", func(blk []byte) []byte {
			blk[7] ^= 0x01 // epoch byte; CRC now stale
			return blk
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blk := tc.mutate(goodSuperblock(4096))
			meta, ok := decodeSuperblock(blk)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && (meta.epoch != 3 || meta.walBlocks != 64 || meta.nextTxID != 1000) {
				t.Fatalf("decoded %+v", meta)
			}
		})
	}
}

// TestOpenCorruptSuperblockFailsClosed pins the open step's treatment of block
// 0. Bytes that fail the magic/CRC check are a damaged database: both doors
// refuse with ErrCorruptSuperblock and write nothing — formatting over them
// would report an empty database where there was one (the ransomware example's
// encrypted volume, a backup with a rotten header). Only a block 0 that was
// never written, or holds nothing but zeroes, is an unformatted volume: Open
// formats it, OpenView returns ErrNotFormatted.
func TestOpenCorruptSuperblockFailsClosed(t *testing.T) {
	garbage := bytes.Repeat([]byte{0x66}, 4096)
	badMagic := goodSuperblock(4096)
	badMagic[0] ^= 0xFF
	staleCRC := goodSuperblock(4096)
	staleCRC[7] ^= 0x01
	for name, blk := range map[string][]byte{"encrypted": garbage, "bad magic": badMagic, "stale crc": staleCRC} {
		t.Run(name, func(t *testing.T) {
			withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
				if err := vol.Poke(0, blk); err != nil {
					t.Fatal(err)
				}
				stored := vol.Peek(0)
				if d, err := Open(p, "x", vol, Config{}); !errors.Is(err, ErrCorruptSuperblock) || d != nil {
					t.Fatalf("Open = %v, %v; want ErrCorruptSuperblock and no database", d, err)
				}
				if v, err := OpenView(p, "x", vol, Config{}); !errors.Is(err, ErrCorruptSuperblock) || v != nil {
					t.Fatalf("OpenView = %v, %v; want ErrCorruptSuperblock and no view", v, err)
				}
				if vol.Writes() != 0 || &vol.Peek(0)[0] != &stored[0] {
					t.Fatalf("a refused open wrote the volume: %d writes", vol.Writes())
				}
			})
		})
	}
	t.Run("all zero", func(t *testing.T) {
		withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
			if err := vol.Poke(0, make([]byte, vol.BlockSize())); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenView(p, "x", vol, Config{}); !errors.Is(err, ErrNotFormatted) {
				t.Fatalf("OpenView of a zeroed block 0 = %v, want ErrNotFormatted", err)
			}
			d, err := Open(p, "x", vol, Config{})
			if err != nil || d.RecoveredTxns() != 0 {
				t.Fatalf("Open of a zeroed block 0 = %v, want a freshly formatted database", err)
			}
			if _, ok := decodeSuperblock(vol.Peek(0)); !ok {
				t.Fatal("Open did not format the zeroed volume")
			}
		})
	})
}

// The superblock a fresh Open writes is pinned byte for byte, checksum
// (wal.Checksum, CRC-32C) included, and a flip of any one of its bits is
// ErrCorruptSuperblock from both doors.
func TestSuperblockKnownAnswer(t *testing.T) {
	const want = "4244425a" + "0100" + "01000000" + "40000000" + // magic, version, epoch, WAL blocks
		"0100000000000000" + "c397f33d" // next txid, CRC-32C
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		if _, err := Open(p, "x", vol, Config{}); err != nil {
			t.Fatal(err)
		}
		sb := bytes.Clone(vol.Peek(0))
		if got := hex.EncodeToString(sb); got != want {
			t.Fatalf("Open wrote superblock %s, want %s", got, want)
		}
		for bit := range 8 * len(sb) {
			flipped := bytes.Clone(sb)
			flipped[bit/8] ^= 1 << (bit % 8)
			if err := vol.Poke(0, flipped); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenView(p, "x", vol, Config{}); !errors.Is(err, ErrCorruptSuperblock) {
				t.Fatalf("bit %d flipped: OpenView = %v, want ErrCorruptSuperblock", bit, err)
			}
			if _, err := Open(p, "x", vol, Config{}); !errors.Is(err, ErrCorruptSuperblock) {
				t.Fatalf("bit %d flipped: Open = %v, want ErrCorruptSuperblock", bit, err)
			}
		}
	})
}

// TestOpenWALSizeMismatch pins the config/on-disk WAL-region check.
func TestOpenWALSizeMismatch(t *testing.T) {
	withVolume(t, 256, func(p *sim.Proc, vol *storage.Volume) {
		if _, err := Open(p, "x", vol, Config{WALBlocks: 64}); err != nil {
			t.Fatal(err)
		}
		_, err := Open(p, "x", vol, Config{WALBlocks: 32})
		if err == nil || !strings.Contains(err.Error(), "WAL size mismatch") {
			t.Fatalf("err = %v, want WAL size mismatch", err)
		}
	})
}
