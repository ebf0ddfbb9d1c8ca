package dsp

import "math"

// Window identifies a tapering function applied before an FFT to control
// spectral leakage.
type Window int

const (
	// Rectangular applies no tapering.
	Rectangular Window = iota
	// Hann is the raised-cosine window; first sidelobe -31.5 dB.
	Hann
	// Hamming is the optimized raised-cosine window; first sidelobe -42.7 dB.
	Hamming
	// Blackman is the three-term cosine window; first sidelobe -58 dB.
	Blackman
)

// String returns the conventional window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	}
	return "unknown"
}

// Coefficients returns the n window coefficients. n <= 0 returns nil; n == 1
// returns [1].
func (w Window) Coefficients(n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	den := float64(n - 1)
	for i := range out {
		x := float64(i) / den
		switch w {
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(2*math.Pi*x)
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*x)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
		default:
			out[i] = 1
		}
	}
	return out
}
