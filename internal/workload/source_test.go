package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The shop's source must be math/rand.NewSource's stream draw for draw, past
// the switch to the real register at draw rngTap+1 and across a re-seed, at
// seeds that hit each branch of Seed's normalisation (zero, negative, a
// multiple of int32max, beyond 32 bits) and at every fleet tenant's seed.
func TestShopSourceIsMathRandsStream(t *testing.T) {
	seeds := []int64{0, -1, 1, int32max, 1 << 31, -1 << 40, 89482311, 2 * int32max, -int32max}
	for _, base := range []int64{1, 2} {
		for i := range int64(1024) {
			seeds = append(seeds, base+7919*i+0x5eed)
		}
	}
	const calls = 3000 // each half of the stream crosses the switch
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLazySource(seed))
		wz, gz := rand.NewZipf(want, 1.2, 1, 99), rand.NewZipf(got, 1.2, 1, 99)
		for d := range calls {
			if d == calls/2 { // re-seed mid-stream: both restart at draw 1
				want.Seed(seed + 1)
				got.Seed(seed + 1)
			}
			var w, g uint64
			switch d % 5 {
			case 0:
				w, g = uint64(want.Int63()), uint64(got.Int63())
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				w, g = uint64(want.Intn(100)), uint64(got.Intn(100))
			case 3:
				w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			case 4:
				w, g = wz.Uint64(), gz.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d, call %d (kind %d): math/rand %d, shop source %d", seed, d, d%5, w, g)
			}
		}
	}
}

// Each draw of the source alone, against rand.NewSource, across the switch.
func TestLazySourceSwitchesAtTheTap(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLazySource(seed)
		for j := 1; j <= 2*rngLen; j++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d, draw %d: math/rand %d, lazy %d", seed, j, w, g)
			}
			if (got.src != nil) != (j > rngTap) {
				t.Fatalf("seed %d, draw %d: register built = %v", seed, j, got.src != nil)
			}
		}
	}
}

// BenchmarkNewShop is the shop's construction at the fleet's configuration,
// one seed per iteration as the fleet's tenants have.
func BenchmarkNewShop(b *testing.B) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "main", storage.Config{BlockSize: 512})
	var sales, stock *db.DB
	env.Process("open", func(p *sim.Proc) {
		open := func(id storage.VolumeID) *db.DB {
			vol, err := a.CreateVolume(id, 256)
			if err != nil {
				b.Fatal(err)
			}
			d, err := db.Open(p, string(id), vol, db.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return d
		}
		sales, stock = open("sales"), open("stock")
	})
	env.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		NewShop(env, sales, stock, Config{Seed: 1 + int64(i)*7919})
	}
}
