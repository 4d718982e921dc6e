package workload

import "math/rand"

// math/rand's generator is an additive lagged-Fibonacci register of rngLen
// words with a tap rngTap back. Seed fills word i with three steps of a Lehmer
// chain (x ← 48271·x mod 2³¹−1) XORed with a fixed table, and draw j writes
// the sum of words 334−j and 607−j back over the first. So for the first
// rngTap draws neither word has been written: each is a function of the seed
// and its index alone, and needs no register.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lehmer   = 48271
)

// cooked is math/rand's unexported seeding table; mult[i] is lehmer^(20+3i+1)
// mod int32max, the factor that takes a normalised seed to the first of word
// i's three chain values (Seed steps the chain 20 times before word 0).
var cooked, mult [rngLen]int64

// init recovers cooked from the first rngLen draws of one rand.NewSource(1).
// Draws rngTap+1 … rngLen each add an unwritten word to one that draw
// j−rngTap wrote, which yields words 0–60 and 334–606; draws 1 … rngTap each
// add word 607−j, now known, to word 334−j, which yields words 61–333.
func init() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[j] is draw j, counted from 1
	for j := 1; j <= rngLen; j++ {
		out[j] = int64(src.Uint64())
	}
	var word [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		word[(2*rngLen-rngTap-j)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		word[rngLen-rngTap-j] = out[j] - word[rngLen-j]
	}
	m := int64(1)
	for range 21 {
		m = m * lehmer % int32max
	}
	for i := range mult {
		mult[i] = m
		cooked[i] = word[i] ^ chain(1, i)
		m = m * (lehmer * lehmer * lehmer % int32max) % int32max
	}
}

// chain is word i's seeding term for the normalised seed x: chain steps
// 20+3i+1 … +3 from x, packed as Seed packs them.
func chain(x int64, i int) int64 {
	x1 := x * mult[i] % int32max
	x2 := x1 * lehmer % int32max
	x3 := x2 * lehmer % int32max
	return x1<<40 ^ x2<<20 ^ x3
}

// lazySource is a rand.Source64 whose stream is exactly rand.NewSource(seed)'s.
// It computes each of its first rngTap draws from two seeded words on demand,
// and only on draw rngTap+1 builds math/rand's own register, fast-forwarded
// rngTap draws. A shop that makes few draws never allocates the register.
type lazySource struct {
	seed int64 // normalised as math/rand does: in [1, int32max)
	n    int   // draws made, up to rngTap
	src  rand.Source64
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream as rand.NewSource(seed) would.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.n, s.src = seed, 0, nil
}

func (s *lazySource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.word(rngLen-rngTap-s.n) + s.word(rngLen-s.n))
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for range rngTap {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// word is register word i as Seed leaves it.
func (s *lazySource) word(i int) int64 { return chain(s.seed, i) ^ cooked[i] }
