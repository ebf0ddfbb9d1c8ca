package radar

import (
	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

// Detection is one extracted reflection peak in polar and world coordinates.
type Detection struct {
	Range float64    // meters from the radar
	AoA   float64    // radians in [0, π]
	Power float64    // profile power at the peak
	Pos   geom.Point // world position (via the array geometry)
	Time  float64
}

// Detect extracts target detections from a range–angle profile: 2-D local
// maxima above the power thresholds, refined with quadratic interpolation in
// both range and angle, then mapped to world coordinates through the array.
// The returned slice is freshly allocated and safe to retain; steady-state
// callers that want to reuse a buffer use FrontEndPlan.DetectInto.
func (pr *Processor) Detect(prof *Profile, array fmcw.Array) []Detection {
	if prof.RangeBins == 0 {
		return nil
	}
	return pr.Plan(prof.Params).DetectInto(make([]Detection, 0, pr.cfg.MaxTargets), prof, array)
}

// DetectInto extracts target detections from a range–angle profile into
// dst[:0] and returns the result, exactly as Detect would compute them. The
// interpolation column and peak-finder scratch come from the plan's free
// list, so a warmed-up call allocates nothing beyond growing dst the first
// time. The profile must describe the plan's compiled shape (any profile
// produced by the plan's RangeAngleInto does).
//
//rfvet:allocfree
func (pl *FrontEndPlan) DetectInto(dst []Detection, prof *Profile, array fmcw.Array) []Detection {
	dst = dst[:0]
	if prof.RangeBins == 0 {
		return dst
	}
	maxPower := 0.0
	for _, v := range prof.Power {
		if v > maxPower {
			maxPower = v
		}
	}
	thresh := pl.cfg.MinPeakPower
	if t := maxPower * pl.cfg.MinPeakRatio; t > thresh {
		thresh = t
	}
	// Enforce a separation of about one nominal beamwidth in angle and one
	// range bin by using a Chebyshev distance of a few cells.
	sep := prof.AngleBins / (2 * prof.Params.NumAntennas)
	if sep < 2 {
		sep = 2
	}
	e := pl.getDet()
	peaks := e.finder.Find(prof.Power, prof.RangeBins, prof.AngleBins, thresh, sep)
	if len(peaks) > pl.cfg.MaxTargets {
		peaks = peaks[:pl.cfg.MaxTargets]
	}
	col := e.rangeCol(prof.RangeBins)
	for _, pk := range peaks {
		// Sub-bin refinement along range (column fixed) and angle (row fixed).
		rowSlice := prof.Power[pk.Row*prof.AngleBins : (pk.Row+1)*prof.AngleBins]
		aOff := dsp.QuadraticInterp(rowSlice, pk.Col)
		for r := 0; r < prof.RangeBins; r++ {
			col[r] = prof.At(r, pk.Col)
		}
		rOff := dsp.QuadraticInterp(col, pk.Row)
		rng := prof.RangeOfBin(float64(pk.Row) + rOff)
		aoa := prof.AngleOfBin(float64(pk.Col) + aOff)
		dst = append(dst, Detection{
			Range: rng,
			AoA:   aoa,
			Power: pk.Value,
			Pos:   array.PointAt(rng, aoa),
			Time:  prof.Time,
		})
	}
	pl.putDet(e)
	return dst
}

// rangeCol returns the executor's interpolation column sized to n bins,
// growing it on first use. The growth lives here rather than inline in
// DetectInto because it is a one-time warm-up cost: every later call with
// the plan's compiled shape reuses the slice, and keeping the make out of
// DetectInto's body lets its //rfvet:allocfree annotation hold. noinline
// keeps the compiler from folding the make back into DetectInto's escape
// diagnostics; the call costs one jump per detection pass.
//
//go:noinline
func (e *detExec) rangeCol(n int) []float64 {
	if cap(e.col) < n {
		e.col = make([]float64, n)
	}
	return e.col[:n]
}
