package fmcw

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchReturns builds a deterministic mixed workload: direct paths,
// frequency-shifted reflector tones, and multipath-like weak returns.
func benchReturns(n int) []Return {
	rng := rand.New(rand.NewSource(99))
	out := make([]Return, n)
	for i := range out {
		out[i] = Return{
			Delay:     2 * (1 + 10*rng.Float64()) / C,
			Amplitude: 0.05 + rng.Float64(),
			AoA:       rng.Float64() * 3.1,
			FreqShift: float64(i%3) * 20e3,
			Phase:     rng.Float64(),
		}
	}
	return out
}

// TestSynthesizeWorkersBitIdentical is the reproducibility contract of the
// parallel pipeline: for a fixed seed, the shared plan's SynthesizeInto must
// produce bit-identical frames for every worker count, including the
// sequential workers=1 path, more workers than antennas, and the auto-sized
// pool — noise comes from per-antenna split streams, never from
// worker-schedule-dependent draws.
func TestSynthesizeWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		noise   float64
		returns int
		seed    int64
	}{
		{"noiseless-few-returns", 0, 3, 1},
		{"noisy-few-returns", 0.02, 3, 1},
		{"noisy-many-returns", 0.05, 40, 7},
		{"noise-only", 0.5, 0, 11},
	}
	workerCounts := []int{2, 3, 4, 8, 100, 0}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.NoiseStd = tc.noise
			returns := benchReturns(tc.returns)
			pl := PlanSynth(p)
			synth := func(workers int) *Frame {
				f := NewFrame(p, 0.25)
				if err := pl.SynthesizeInto(nil, f, returns, rand.New(rand.NewSource(tc.seed)), workers); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return f
			}
			ref := synth(1)
			for _, w := range workerCounts {
				framesEqualBits(t, fmt.Sprintf("workers=%d", w), ref, synth(w))
			}
		})
	}
}

// TestSynthesizeMatchesDefaultEntryPoint pins Synthesize, the allocating
// form, to the shared plan's destination-passing SynthesizeInto at the
// auto-sized worker pool.
func TestSynthesizeMatchesDefaultEntryPoint(t *testing.T) {
	p := DefaultParams()
	returns := benchReturns(10)
	a := Synthesize(p, returns, 0.1, rand.New(rand.NewSource(3)))
	b := NewFrame(p, 0.1)
	if err := PlanSynth(p).SynthesizeInto(nil, b, returns, rand.New(rand.NewSource(3)), 0); err != nil {
		t.Fatal(err)
	}
	if !framesEqual(a, b) {
		t.Fatal("Synthesize diverges from PlanSynth(p).SynthesizeInto(…, 0)")
	}
}

// TestAddReturnsMatchesPerAntennaDecomposition guards the refactor that
// moved the accumulation loop to a per-antenna unit: the public AddReturns
// must equal the antenna-sliced path exactly.
func TestAddReturnsMatchesPerAntennaDecomposition(t *testing.T) {
	p := DefaultParams()
	returns := benchReturns(17)
	whole := NewFrame(p, 0.5)
	whole.AddReturns(returns)
	sliced := NewFrame(p, 0.5)
	for k := p.NumAntennas - 1; k >= 0; k-- { // any antenna order is fine
		sliced.addReturnsAntenna(k, returns)
	}
	for k := range whole.Data {
		for i := range whole.Data[k] {
			if whole.Data[k][i] != sliced.Data[k][i] {
				t.Fatalf("antenna %d sample %d differs", k, i)
			}
		}
	}
}

// TestSynthesizeConsumesOneDrawForNoise documents the seed-splitting
// contract: a noisy Synthesize consumes exactly one value from the caller's
// rng (the base seed), so surrounding code that shares the rng sees the
// same stream position regardless of frame geometry.
func TestSynthesizeConsumesOneDrawForNoise(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(5))
	ref := rand.New(rand.NewSource(5))
	ref.Int63()
	want := ref.Int63()
	Synthesize(p, benchReturns(4), 0, rng)
	if got := rng.Int63(); got != want {
		t.Fatalf("rng advanced unexpectedly: got %d, want %d", got, want)
	}
	// A noiseless synthesis must not touch the rng at all.
	p.NoiseStd = 0
	rng2 := rand.New(rand.NewSource(5))
	Synthesize(p, benchReturns(4), 0, rng2)
	if got := rng2.Int63(); got != func() int64 { r := rand.New(rand.NewSource(5)); return r.Int63() }() {
		t.Fatalf("noiseless synthesis consumed rng draws: %d", got)
	}
}

func benchmarkSynthesize(b *testing.B, workers int) {
	p := DefaultParams()
	returns := benchReturns(64)
	rng := rand.New(rand.NewSource(1))
	pl := PlanSynth(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pl.SynthesizeInto(nil, NewFrame(p, 0), returns, rng, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeSequential(b *testing.B) { benchmarkSynthesize(b, 1) }

func BenchmarkSynthesizeParallel(b *testing.B) { benchmarkSynthesize(b, 0) }
