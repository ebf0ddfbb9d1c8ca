package fmcw

import (
	"math"
	"sync"

	"rfprotect/internal/parallel"
)

// The noise contract. A noisy synthesis draws one base seed b from the
// caller's rng; antenna k's row then receives
//
//	row[i] += complex(z[2i]·std, z[2i+1]·std)
//
// where z is the NormFloat64 stream of rand.New(rand.NewSource(
// parallel.SplitSeed(b, k))). Those bits are part of every pinned output
// (experiment hashes, paper bands, the daemon's bit-identity test), so the
// generator that produces them is fixed: it is math/rand's Go 1 value
// stream. noiseStream reproduces that stream bit for bit without going
// through math/rand, because math/rand's per-antenna reseed and
// interface-dispatched draws were the largest cost of frame synthesis.
//
// Two things make it cheaper while keeping every bit:
//
//   - Seeding without division. rngSource.Seed steps the Lehmer LCG
//     x ← 48271·x mod (2³¹−1) 1841 times, each step a Schrage
//     division, and the steps form one serial chain. Word i of the register
//     takes x[21+3i], x[22+3i], x[23+3i] (its high, middle and low 20-bit
//     thirds), so the three thirds are three independent chains stepping by
//     A³ = 48271³ mod (2³¹−1). Each step is a 31×31-bit multiply folded
//     modulo the Mersenne prime (x mod 2³¹−1 = (x & (2³¹−1)) + (x >> 31),
//     once more if needed), so the register fills at the multiplier's
//     throughput instead of a divider's latency. With AVX2 the chains run
//     as 24 lanes, eight words per step (noiseSeedAVX2).
//   - Block generation and concrete draws. The additive lagged-Fibonacci
//     step vec[feed] += vec[tap] runs a whole wrap-free run of the register
//     at a time (refill, four words per AVX2 add), and the ziggurat draws
//     index the register directly: no interface call, no per-draw index
//     wrap.
//
// noise_test.go compares the stream with math/rand for thousands of seeds,
// including both ziggurat slow paths; FuzzNoiseStream explores the rest.
const (
	rngLen  = 607 // lagged-Fibonacci register length (math/rand rngLen)
	rngTap  = 273 // feedback tap (math/rand rngTap)
	rngMask = 1<<63 - 1

	seedMod  = 1<<31 - 1 // the seed LCG's modulus, a Mersenne prime
	seedA    = 48271     // the seed LCG's multiplier
	seedA3   = seedA * seedA * seedA % seedMod
	seedA7   = seedA * seedA * seedA * seedA * seedA * seedA * seedA % seedMod
	seedA21  = seedA7 * seedA7 % seedMod * seedA7 % seedMod
	seedA24  = seedA21 * seedA3 % seedMod
	seedZero = 89482311 // math/rand's replacement for a zero seed residue

	zigR = 3.442619855899 // the ziggurat's base-strip edge (math/rand rn)
)

// noiseStream is math/rand's rngSource plus the Rand draws synthesis uses
// (Int63, Float64, NormFloat64) as one concrete type. The register holds
// the generated-but-unconsumed outputs vec[lo:pos], handed out from the top
// down in the order rngSource.Uint64 would produce them; tap is
// rngSource.tap at the bottom of that run.
type noiseStream struct {
	vec     [rngLen]int64
	pos, lo int
	tap     int

	z [512]float64 // addRow's draw buffer
}

// seed sets the stream to exactly the state rand.NewSource(seed) starts in.
// Callers key it with parallel.SplitSeed (rfvet seedsplit enforces this).
//
//rfvet:allocfree
func (s *noiseStream) seed(seed int64) {
	// Three chains, one per third of each word: x[21], x[22], x[23] are the
	// thirds of word 0, and every chain steps by A³ from there.
	c0 := mulModSeed(seedResidue(seed), seedA21)
	c1 := mulModSeed(c0, seedA)
	c2 := mulModSeed(c1, seedA)
	i := 0
	if useNoiseAVX2 {
		// Eight words per vector step, as two groups of four lanes; lane l
		// starts at word l, so every lane steps by A²⁴. Word l's thirds
		// are x[21+3l], x[22+3l], x[23+3l]: one serial walk fills them.
		var x [24]uint64
		v := c0
		for l := 0; l < 8; l++ {
			for t := 0; t < 3; t++ {
				x[l/4*12+t*4+l%4] = v
				v = mulModSeed(v, seedA)
			}
		}
		i = rngLen &^ 7
		noiseSeedAVX2(&s.vec[0], &rngCooked[0], i, &x, seedA24)
		c0, c1, c2 = x[0], x[4], x[8]
	}
	for ; i < rngLen; i++ {
		s.vec[i] = int64(c0)<<40 ^ int64(c1)<<20 ^ int64(c2) ^ rngCooked[i]
		c0 = mulModSeed(c0, seedA3)
		c1 = mulModSeed(c1, seedA3)
		c2 = mulModSeed(c2, seedA3)
	}
	// rngSource.Seed leaves tap = 0, feed = rngLen−rngTap: nothing generated.
	s.pos, s.lo, s.tap = rngLen-rngTap, rngLen-rngTap, 0
}

// seedResidue is rngSource.Seed's normalization of the seed — seed mod
// (2³¹−1) in Go's truncated-division sense, shifted into [0, 2³¹−1), with 0
// replaced by seedZero — computed by folding |seed| modulo the Mersenne
// prime instead of dividing.
func seedResidue(seed int64) uint64 {
	u := uint64(seed)
	if seed < 0 {
		u = -u // |seed|, also for MinInt64
	}
	u = u&seedMod + u>>31 // < 2³¹ + 2³³
	u = u&seedMod + u>>31 // < 2·seedMod
	if u >= seedMod {
		u -= seedMod
	}
	if seed < 0 && u != 0 {
		u = seedMod - u
	}
	if u == 0 {
		u = seedZero
	}
	return u
}

// mulModSeed returns x·a mod (2³¹−1) for x, a in [1, 2³¹−1). The product
// fits 62 bits; one Mersenne fold leaves it below 2·(2³¹−1), and it is
// never a multiple of the prime, so one conditional subtract finishes.
func mulModSeed(x, a uint64) uint64 {
	p := x * a
	p = p&seedMod + p>>31
	if p >= seedMod {
		p -= seedMod
	}
	return p
}

// refill runs the next wrap-free block of the additive lagged-Fibonacci
// recurrence. rngSource.Uint64 decrements feed and tap (wrapping at 0) and
// sets vec[feed] += vec[tap]; between wraps that is the descending loop
// below, executed in the same order, so every output and every later
// register word is the same. Blocks alternate between 334 and 273 outputs.
// A word is read 273 steps after it is written, so the AVX2 kernel may add
// four neighbours at once.
//
//rfvet:allocfree
func (s *noiseStream) refill() {
	feed, tap := s.lo, s.tap
	if feed == 0 {
		feed = rngLen
	}
	if tap == 0 {
		tap = rngLen
	}
	n := min(feed, tap)
	dst := s.vec[feed-n : feed]
	src := s.vec[tap-n : tap]
	src = src[:len(dst)]
	j := n
	if useNoiseAVX2 && n >= 4 {
		// The top n−n%4 words in groups of four, then the rest below.
		j = n & 3
		noiseAddAVX2(&dst[j], &src[j], n-j)
	}
	for j--; j >= 0; j-- {
		dst[j] += src[j]
	}
	s.pos, s.lo, s.tap = feed, feed-n, tap-n
}

// int63 is Rand.Int63 on an rngSource.
//
//rfvet:allocfree
func (s *noiseStream) int63() int64 {
	if s.pos == s.lo {
		s.refill()
	}
	s.pos--
	return s.vec[s.pos] & rngMask
}

// float64 is Rand.Float64, including its resample of a result that rounds
// up to 1.
func (s *noiseStream) float64() float64 {
again:
	f := float64(s.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// normSlow finishes a NormFloat64 draw whose first candidate j fell outside
// its rectangle, running the rest of math/rand's loop verbatim.
func (s *noiseStream) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(zigWn[i])
		if absInt32(j) < zigKn[i] {
			return x
		}
		if i == 0 {
			// The base strip: sample the tail beyond zigR.
			for {
				x = -math.Log(s.float64()) * (1.0 / zigR)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		// A wedge.
		if zigFn[i]+float32(s.float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(uint32(s.int63() >> 31))
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// fill writes the next len(z) NormFloat64 draws into z: Rand.NormFloat64,
// the Go 1 ziggurat. The rectangle test, which over 97% of draws pass, runs
// inline on Rand.Uint32's bits straight from the register, with the cursor
// in a local; the wedge and base-strip tail continue in normSlow, and only
// they and a refill sync the cursor back to the stream.
//
//rfvet:allocfree
func (s *noiseStream) fill(z []float64) {
	vec := &s.vec
	pos := s.pos
	for d := range z {
		if pos == s.lo {
			s.refill()
			pos = s.pos
		}
		pos--
		j := int32(uint32(uint64(vec[pos]) >> 31)) // bits 31..62: Rand.Uint32
		if k := j & 0x7F; absInt32(j) < zigKn[k] {
			z[d] = float64(j) * float64(zigWn[k])
			continue
		}
		s.pos = pos
		z[d] = s.normSlow(j)
		pos = s.pos
	}
	s.pos = pos
}

// addRow adds std-scaled complex Gaussian noise to every sample of row,
// the in-phase component drawn before the quadrature one: exactly
// row[i] += complex(NormFloat64()*std, NormFloat64()*std), since complex
// addition is componentwise.
//
//rfvet:allocfree
func (s *noiseStream) addRow(row []complex128, std float64) {
	for len(row) > 0 {
		n := min(len(row), len(s.z)/2)
		z := s.z[:2*n]
		s.fill(z)
		for i := range row[:n] {
			row[i] += complex(z[2*i]*std, z[2*i+1]*std)
		}
		row = row[n:]
	}
}

// addNoise adds antenna k's noise to row: the stream keyed by
// parallel.SplitSeed(base, k), per the noise contract above. It touches
// only row and a pooled stream, so antennas may run concurrently.
//
//rfvet:allocfree
func addNoise(row []complex128, std float64, base int64, k int) {
	s := getNoiseStream()
	s.seed(parallel.SplitSeed(base, k))
	s.addRow(row, std)
	putNoiseStream(s)
}

// noiseStreams pools streams (≈9 KiB each: the register and addRow's draw
// buffer) so steady-state synthesis allocates none. A mutex-guarded free
// list rather than sync.Pool: pooled streams survive GC cycles between
// frames, and race-detector builds (where sync.Pool deliberately drops
// items) keep the exact-zero allocation contract. Seeding overwrites the
// whole state, so a recycled stream carries nothing over.
var noiseStreams struct {
	mu   sync.Mutex
	free []*noiseStream
}

func getNoiseStream() *noiseStream {
	noiseStreams.mu.Lock()
	if n := len(noiseStreams.free); n > 0 {
		s := noiseStreams.free[n-1]
		noiseStreams.free[n-1] = nil
		noiseStreams.free = noiseStreams.free[:n-1]
		noiseStreams.mu.Unlock()
		return s
	}
	noiseStreams.mu.Unlock()
	return newNoiseStream()
}

// newNoiseStream is the pool's one allocation site, kept out of line so
// the //rfvet:allocfree callers never inline it.
//
//go:noinline
func newNoiseStream() *noiseStream { return new(noiseStream) }

func putNoiseStream(s *noiseStream) {
	noiseStreams.mu.Lock()
	noiseStreams.free = append(noiseStreams.free, s)
	noiseStreams.mu.Unlock()
}
