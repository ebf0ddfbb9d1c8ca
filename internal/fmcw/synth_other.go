//go:build !amd64

package fmcw

// useSynthAVX is always false off amd64: synthesis runs the portable scalar
// kernels.
var useSynthAVX = false

// useNoiseAVX2 is always false off amd64: the noise stream runs its scalar
// loops.
var useNoiseAVX2 = false

// synthTabAVX is unreachable off amd64 (useSynthAVX is never set); the stub
// keeps the package compiling without per-architecture dispatch at the call
// sites.
func synthTabAVX(tab *complex128, n int, s4r, s4i float64) {
	panic("fmcw: synthTabAVX without AVX support")
}

// synthMacAVX is unreachable off amd64; see synthTabAVX.
func synthMacAVX(row, tab *complex128, n int, cr, ci float64) {
	panic("fmcw: synthMacAVX without AVX support")
}

// noiseSeedAVX2 is unreachable off amd64; see synthTabAVX.
func noiseSeedAVX2(vec, cooked *int64, n int, x *[24]uint64, step uint64) {
	panic("fmcw: noiseSeedAVX2 without AVX2 support")
}

// noiseAddAVX2 is unreachable off amd64; see synthTabAVX.
func noiseAddAVX2(dst, src *int64, n int) {
	panic("fmcw: noiseAddAVX2 without AVX2 support")
}
