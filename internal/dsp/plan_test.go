package dsp

import (
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// randSignal seeds a fresh stream and reuses the suite's randComplex
// helper; naiveDFT (fft_test.go) is the plan-free reference the cached
// transforms are checked against.
func randSignal(n int, seed int64) []complex128 {
	return randComplex(rand.New(rand.NewSource(seed)), n)
}

// TestPlannedFFTMatchesUncachedReference checks the cached-plan transforms
// against a plan-free direct DFT for radix-2 and Bluestein sizes, both
// directions.
func TestPlannedFFTMatchesUncachedReference(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512, 3, 12, 100, 211} {
		x := randSignal(n, int64(n))
		for _, inverse := range []bool{false, true} {
			var got []complex128
			if inverse {
				got = IFFT(x)
			} else {
				got = FFT(x)
			}
			want := naiveDFT(x, inverse)
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(n) {
					t.Fatalf("n=%d inverse=%v bin %d: %v vs %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanCacheHitIsBitIdentical verifies that the transform that builds
// the plan (first call for a size) and every cache-hit transform after it
// produce bit-identical output.
func TestPlanCacheHitIsBitIdentical(t *testing.T) {
	for _, n := range []int{128, 48} { // radix-2 and Bluestein
		x := randSignal(n, 7)
		first := FFT(x)
		for trial := 0; trial < 3; trial++ {
			again := FFT(x)
			for i := range again {
				if again[i] != first[i] {
					t.Fatalf("n=%d: cache-hit transform differs at bin %d", n, i)
				}
			}
		}
	}
}

// TestPlanCacheConcurrentFirstUse hammers a previously unseen size from
// many goroutines so the build-outside-lock path runs under -race, and
// checks every goroutine got the same answer.
func TestPlanCacheConcurrentFirstUse(t *testing.T) {
	const n = 1536 // non-power-of-two: exercises the bluestein plan too
	x := randSignal(n, 9)
	want := naiveDFT(x, false)
	var wg sync.WaitGroup
	errc := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := FFT(x)
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > 1e-7*float64(n) {
					errc <- "concurrent FFT diverged from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if msg, ok := <-errc; ok {
		t.Fatal(msg)
	}
}

func BenchmarkFFT512Cached(b *testing.B) {
	x := randSignal(512, 1)
	buf := make([]complex128, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		FFTInPlace(buf)
	}
}

func BenchmarkFFTBluestein100Cached(b *testing.B) {
	x := randSignal(100, 1)
	buf := make([]complex128, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		FFTInPlace(buf)
	}
}
