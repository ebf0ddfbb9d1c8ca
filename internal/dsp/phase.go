package dsp

import "math"

// Unwrap removes 2π discontinuities from a wrapped phase series, returning a
// new slice.
func Unwrap(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		out[i] = phase[i] + offset
	}
	return out
}

// WrapAngle wraps an angle to (-π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// DominantFrequency estimates the strongest nonzero frequency component of a
// real series sampled at fs Hz, using a windowed real-input FFT with
// quadratic peak interpolation. It returns 0 for series shorter than 4
// samples.
func DominantFrequency(x []float64, fs float64) float64 {
	n := len(x)
	if n < 4 {
		return 0
	}
	// Remove the mean so the DC bin does not dominate.
	m := Mean(x)
	c := make([]float64, n)
	for i, v := range x {
		c[i] = v - m
	}
	spec := WindowedRFFT(c, Hann.Coefficients(n))
	mag := Magnitude(spec[:n/2])
	best, bestVal := 0, 0.0
	for i := 1; i < len(mag); i++ {
		if mag[i] > bestVal {
			best, bestVal = i, mag[i]
		}
	}
	if best == 0 {
		return 0
	}
	off := QuadraticInterp(mag, best)
	return (float64(best) + off) * fs / float64(n)
}
