package fmcw

import (
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/parallel"
)

// noiseDrawsPerSeed is how many NormFloat64 values each bit-identity seed
// compares: one 1024-sample antenna row, enough to run the register through
// several refill blocks of both lengths.
const noiseDrawsPerSeed = 2048

// noiseTestSeeds returns the bit-identity seed set: the edges of
// rngSource.Seed's normalization (0 and its replacement 89482311, ±1, every
// small multiple of 2³¹−1 and its neighbours, the int64 extremes), seeds
// shaped like the ones synthesis actually uses (SplitSeed outputs), and
// random int64s.
func noiseTestSeeds() []int64 {
	const m = seedMod
	seeds := []int64{
		0, 1, -1, 2, -2, m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		seedZero, -seedZero, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 31, -1 << 31, 1 << 62, -1 << 62,
	}
	for k := int64(2); k <= 8; k++ {
		seeds = append(seeds, k*m, -k*m, k*m+1, -k*m-1, k*m-1, -k*m+1, k*m+seedZero)
	}
	// The multiple of 2³¹−1 nearest each int64 extreme.
	seeds = append(seeds, math.MaxInt64/m*m, math.MinInt64/m*m)
	for i := 0; i < 64; i++ {
		seeds = append(seeds, parallel.SplitSeed(1, i), parallel.SplitSeed(int64(i), 3))
	}
	r := rand.New(rand.NewSource(20260808))
	for len(seeds) < 4000 {
		v := int64(r.Uint64())
		if len(seeds)%3 == 0 {
			v = r.Int63n(1 << 34) // small seeds reduce through fewer folds
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// firstDraw is a rand.Source that records the first Int63 a NormFloat64
// consumes, so the test can tell which ziggurat branch the draw took. It
// deliberately does not implement rand.Source64: Rand's Int63, Uint32,
// Float64 and NormFloat64 never use Uint64, so the value stream is the
// plain source's.
type firstDraw struct {
	rand.Source
	first int64
	n     int
}

func (f *firstDraw) Int63() int64 {
	v := f.Source.Int63()
	if f.n == 0 {
		f.first = v
	}
	f.n++
	return v
}

// forEachNoisePath runs f on the scalar seed and refill loops and, where
// the CPU has AVX2, on the vector kernels, so each path is held to
// math/rand on its own.
func forEachNoisePath(t *testing.T, f func(t *testing.T)) {
	hasAVX2 := useNoiseAVX2
	defer func() { useNoiseAVX2 = hasAVX2 }()
	useNoiseAVX2 = false
	t.Run("scalar", f)
	if hasAVX2 {
		useNoiseAVX2 = true
		t.Run("avx2", f)
	}
}

// TestNoiseStreamMatchesMathRand pins noiseStream to math/rand's Go 1 value
// stream bit for bit over thousands of seeds, and checks that the seeds
// drove the ziggurat through both of its slow paths — the base-strip tail
// and the wedge test — since a bug there would otherwise hide in the <1%
// of draws that reach it.
func TestNoiseStreamMatchesMathRand(t *testing.T) {
	forEachNoisePath(t, testNoiseStreamMatchesMathRand)
}

func testNoiseStreamMatchesMathRand(t *testing.T) {
	seeds := noiseTestSeeds()
	var s noiseStream
	z := make([]float64, noiseDrawsPerSeed)
	var base, wedge, draws int
	for _, seed := range seeds {
		src := &firstDraw{Source: rand.NewSource(seed)}
		ref := rand.New(src)
		s.seed(seed)
		s.fill(z)
		for d, got := range z {
			src.n = 0
			want := ref.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: stream %v (%#x), math/rand %v (%#x)",
					seed, d, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			j := int32(uint32(src.first >> 31))
			if i := j & 0x7F; absInt32(j) >= zigKn[i] {
				if i == 0 {
					base++
				} else {
					wedge++
				}
			}
			draws++
		}
		// The uniform draws behind the slow paths, past the normal ones.
		if got, want := s.int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %d, math/rand %d", seed, got, want)
		}
		if got, want := s.float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, got, want)
		}
	}
	t.Logf("%d seeds, %d draws: %d base-strip, %d wedge", len(seeds), draws, base, wedge)
	if base == 0 || wedge == 0 {
		t.Fatalf("ziggurat slow paths not exercised: base-strip %d, wedge %d", base, wedge)
	}
}

// TestNoiseStreamLongRun follows one stream far past the seeded register:
// a stale index or a block-boundary slip in refill shows up only after
// many register wraps.
func TestNoiseStreamLongRun(t *testing.T) {
	forEachNoisePath(t, testNoiseStreamLongRun)
}

func testNoiseStreamLongRun(t *testing.T) {
	for _, seed := range []int64{0, 7, math.MinInt64} {
		var s noiseStream
		s.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for d := 0; d < 50*rngLen; d++ {
			if got, want := s.int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, d, got, want)
			}
		}
	}
}

// TestNoiseSeedArithmetic checks the division-free seeding pieces against
// their division-based definitions: the Mersenne-fold residue against
// rngSource.Seed's `seed % (2³¹−1)` normalization, mulModSeed against
// math/rand's Schrage step, and the A³/A²¹/A²⁴ chain constants against
// repeated stepping.
func TestNoiseSeedArithmetic(t *testing.T) {
	residue := func(seed int64) uint64 {
		seed %= seedMod
		if seed < 0 {
			seed += seedMod
		}
		if seed == 0 {
			seed = seedZero
		}
		return uint64(seed)
	}
	for _, seed := range noiseTestSeeds() {
		if got, want := seedResidue(seed), residue(seed); got != want {
			t.Fatalf("seedResidue(%d) = %d, want %d", seed, got, want)
		}
	}
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += seedMod
		}
		return x
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		x := int32(1 + r.Int63n(seedMod-1))
		switch i {
		case 0:
			x = 1
		case 1:
			x = seedMod - 1
		}
		if got, want := mulModSeed(uint64(x), seedA), uint64(schrage(x)); got != want {
			t.Fatalf("mulModSeed(%d, A) = %d, want %d", x, got, want)
		}
	}
	x := uint64(1)
	for n := 1; n <= 21; n++ {
		x = mulModSeed(x, seedA)
		if n == 3 && x != seedA3 {
			t.Fatalf("seedA3 = %d, want %d", uint64(seedA3), x)
		}
	}
	if x != seedA21 {
		t.Fatalf("seedA21 = %d, want %d", uint64(seedA21), x)
	}
	for n := 22; n <= 24; n++ {
		x = mulModSeed(x, seedA)
	}
	if x != seedA24 {
		t.Fatalf("seedA24 = %d, want %d", uint64(seedA24), x)
	}
}

// TestNoiseMatchesMathRandReference states the noise contract end to end:
// a returns-free planned synthesis at any worker count, its reference
// (synthReference) and Frame.AddNoise all produce exactly the frame that
// math/rand streams keyed by SplitSeed(base, k) produce.
func TestNoiseMatchesMathRandReference(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0.3
	base := rand.New(rand.NewSource(11)).Int63()
	want := NewFrame(p, 0)
	for k, row := range want.Data {
		rng := rand.New(rand.NewSource(parallel.SplitSeed(base, k)))
		for i := range row {
			row[i] += complex(rng.NormFloat64()*p.NoiseStd, rng.NormFloat64()*p.NoiseStd)
		}
	}
	for _, workers := range []int{1, 2, 0} {
		planned := NewFrame(p, 0)
		if err := PlanSynth(p).SynthesizeInto(nil, planned, nil, rand.New(rand.NewSource(11)), workers); err != nil {
			t.Fatal(err)
		}
		framesEqualBits(t, "planned-noise", want, planned)
	}
	reference := NewFrame(p, 0)
	synthReference(reference, nil, rand.New(rand.NewSource(11)))
	framesEqualBits(t, "reference-noise", want, reference)
	added := NewFrame(p, 0)
	added.AddNoise(base)
	framesEqualBits(t, "AddNoise", want, added)
}

// TestNoiseStreamAllocFree: once the stream pool is warm, adding a row of
// noise — seed, draws, and the pool round trip — allocates nothing.
func TestNoiseStreamAllocFree(t *testing.T) {
	row := make([]complex128, 512)
	run := func() { addNoise(row, 0.5, 42, 3) }
	run() // warm the pool
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("noise row allocated %.1f per call, want 0", allocs)
	}
}

// FuzzNoiseStream: for any seed, the stream's draws equal
// rand.New(rand.NewSource(seed))'s, bit for bit.
func FuzzNoiseStream(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, seedMod, -seedMod, seedZero, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	var s noiseStream
	z := make([]float64, noiseDrawsPerSeed)
	f.Fuzz(func(t *testing.T, seed int64) {
		ref := rand.New(rand.NewSource(seed))
		s.seed(seed)
		s.fill(z)
		for d, got := range z {
			if want := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: stream %v, math/rand %v", seed, d, got, want)
			}
		}
	})
}

// BenchmarkNoiseRow is one antenna row's noise (512 samples): the pooled
// stream against math/rand's reseed-and-draw, the path it replaced.
func BenchmarkNoiseRow(b *testing.B) {
	row := make([]complex128, 512)
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addNoise(row, 0.5, int64(i), 3)
		}
	})
	b.Run("math_rand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(0))
		for i := 0; i < b.N; i++ {
			rng.Seed(parallel.SplitSeed(int64(i), 3))
			for j := range row {
				row[j] += complex(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5)
			}
		}
	})
}
