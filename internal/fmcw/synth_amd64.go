//go:build amd64

package fmcw

// useSynthAVX gates the vectorized synthesis kernels (rotation-table build
// and scaled complex MAC). It is set once at init from CPUID (AVX plus OS
// ymm-state support) and read without synchronization afterwards; tests
// toggle it to compare the vector and scalar paths bit for bit.
var useSynthAVX = synthCPUHasAVX()

// useNoiseAVX2 gates the noise stream's integer kernels (seed chains and
// register refill), which need AVX2's 256-bit integer ops on top of the
// AVX gate. Integer arithmetic has no rounding, so the vector kernels equal
// the scalar loops exactly; tests toggle the flag to check it.
var useNoiseAVX2 = synthCPUHasAVX() && synthCPUHasAVX2()

// synthCPUHasAVX reports whether the CPU executes AVX instructions and the
// OS preserves ymm state across context switches.
func synthCPUHasAVX() bool

// synthCPUHasAVX2 reports whether the CPU executes AVX2 instructions.
func synthCPUHasAVX2() bool

// synthTabAVX continues the 4-stride phasor recurrence tab[i] = tab[i-4]·s4
// for i in [4, n), four complexes per iteration across two ymm chains, with
// s4 = (s4r, s4i) = stepC⁴. tab[0..3] must be pre-seeded and n must be a
// multiple of four with n >= 4; the caller handles the n%4 tail (reading
// the stored values, which equal the register chain bit for bit). Pure
// AVX1, no FMA — each lane runs exactly the scalar formula
// (s4r·tr − s4i·ti, s4r·ti + s4i·tr). Implemented in synth_amd64.s.
//
//go:noescape
func synthTabAVX(tab *complex128, n int, s4r, s4i float64)

// synthMacAVX performs row[i] += (cr, ci)·tab[i] for i in [0, n), four
// complexes per iteration; n must be a multiple of four. Each lane runs
// exactly the scalar formula (cr·tr − ci·ti, cr·ti + ci·tr) followed by a
// lanewise add, so the result is bit-identical to macRow's scalar loop.
// Implemented in synth_amd64.s.
//
//go:noescape
func synthMacAVX(row, tab *complex128, n int, cr, ci float64)

// noiseSeedAVX2 writes n seeded register words (n a multiple of 8), eight
// per iteration in two groups of four: lane l of x[0:4], x[4:8], x[8:12]
// holds the high, middle and low seed-chain values of word l, x[12:24] the
// same for words 4..7, and each lane steps by step = A²⁴ per iteration; on
// return x holds words n..n+7's. Each word is exactly noiseStream.seed's
// scalar expression. Implemented in synth_amd64.s.
//
//go:noescape
func noiseSeedAVX2(vec, cooked *int64, n int, x *[24]uint64, step uint64)

// noiseAddAVX2 performs dst[j] += src[j] for j from n−1 down to 0 (n a
// multiple of 4), four lanes at a time from the top: refill's recurrence,
// whose read-after-write lag of 273 leaves every group of four
// independent. Implemented in synth_amd64.s.
//
//go:noescape
func noiseAddAVX2(dst, src *int64, n int)
