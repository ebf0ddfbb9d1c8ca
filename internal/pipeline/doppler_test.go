package pipeline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// dopplerParams is a noiseless configuration with a 1 kHz frame rate, so
// the slow-time sampling interval is 1 ms and the unambiguous velocity band
// (±λ·FrameRate/4 ≈ ±11.5 m/s) comfortably covers walking-speed targets.
func dopplerParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.FrameRate = 1000
	p.NoiseStd = 0
	return p
}

// scattererFrames synthesizes nFrames of a single point scatterer starting
// at range r0 and approaching at constant radial velocity v (m/s; negative
// = receding): delay τ(t) = 2(r0 − v·t)/C, so the carrier phase 2π·f_c·τ
// rotates at the physical Doppler frequency 2·v·f_c/C.
func scattererFrames(p fmcw.Params, nFrames int, r0, v float64) []*fmcw.Frame {
	frames := make([]*fmcw.Frame, nFrames)
	for i := range frames {
		t := float64(i) / p.FrameRate
		d := r0 - v*t
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		frames[i] = fmcw.Synthesize(p, []fmcw.Return{ret}, t, nil)
	}
	return frames
}

// lastDopplerMap pushes the frames through a DopplerStage and returns the
// sliding-window map ending at the last frame. The pipeline is not wired
// with UsePools, so the maps are never recycled and the last one can be
// kept.
func lastDopplerMap(t *testing.T, frames []*fmcw.Frame, window int) *radar.RangeDopplerMap {
	t.Helper()
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), frames[0].Params)
	dop := NewDopplerPlanned(plan, window, 0, radar.NewDopplerPool())
	var last *radar.RangeDopplerMap
	keep := stageFunc(func(it *Item) {
		if it.RangeDoppler != nil {
			last = it.RangeDoppler
		}
	})
	if _, err := New(fromFrames(frames), dop, keep).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("window never filled: no range–Doppler map produced")
	}
	return last
}

// TestDopplerStagePeakMatchesVelocity is the physical property the Doppler
// subsystem must satisfy: a scatterer at constant radial velocity v puts
// its slow-time peak within one Doppler bin of the physical Doppler
// frequency 2·v·f_c/C (equivalently, the bin VelocityOfBin maps to v), at the right
// range; a static scatterer lands in the zero-Doppler bin. Table-driven
// over approaching and receding velocities at multiple ranges.
func TestDopplerStagePeakMatchesVelocity(t *testing.T) {
	const window = 64
	p := dopplerParams()
	cases := []struct {
		name string
		r0   float64
		v    float64
	}{
		{"static-2m", 2, 0},
		{"static-5m", 5, 0},
		{"approach-slow-3m", 3, 0.7},
		{"approach-walk-2m", 2, 1.3},
		{"approach-walk-6m", 6, 1.3},
		{"approach-fast-4m", 4, 3.0},
		{"recede-slow-3m", 3, -0.7},
		{"recede-walk-5m", 5, -1.3},
		{"recede-fast-2m", 2, -3.0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := lastDopplerMap(t, scattererFrames(p, window, c.r0, c.v), window)
			// Global peak of the map.
			bestR, bestD, bestP := -1, -1, 0.0
			for r := 0; r < m.RangeBins; r++ {
				for d := 0; d < m.DopplerBins; d++ {
					if pw := m.At(r, d); pw > bestP {
						bestR, bestD, bestP = r, d, pw
					}
				}
			}
			if bestP == 0 {
				t.Fatal("empty range–Doppler map")
			}
			wantD := -2*c.v/m.Params.Wavelength()*float64(m.DopplerBins)*m.PRI + float64(m.DopplerBins)/2
			if c.v == 0 && wantD != float64(m.DopplerBins)/2 {
				t.Fatalf("zero velocity maps to bin %v, want the zero-Doppler bin %d", wantD, m.DopplerBins/2)
			}
			if diff := math.Abs(float64(bestD) - wantD); diff > 1 {
				t.Fatalf("Doppler peak at bin %d, want within one bin of %.2f (v=%v m/s, off by %.2f bins)",
					bestD, wantD, c.v, diff)
			}
			// The window's center range (the scatterer moves during the burst).
			midRange := c.r0 - c.v*float64(window/2)/p.FrameRate
			if diff := math.Abs(float64(bestR) - m.BinOfRange(midRange)); diff > 1.5 {
				t.Fatalf("range peak at bin %d, want near %.2f", bestR, m.BinOfRange(midRange))
			}
			// Velocity read back through the peak extractor agrees too.
			v, _, ok := m.PeakVelocityAtRange(midRange, 1)
			if !ok {
				t.Fatal("PeakVelocityAtRange found no peak at the scatterer's range")
			}
			binWidth := m.VelocityOfBin(0) - m.VelocityOfBin(1)
			if math.Abs(binWidth) < 1e-12 {
				t.Fatal("degenerate Doppler bin width")
			}
			if err := math.Abs(v - c.v); err > math.Abs(binWidth) {
				t.Fatalf("extracted velocity %v, want %v within one bin width %v", v, c.v, binWidth)
			}
		})
	}
}

// TestDopplerStageWindowSlides verifies the ring buffer actually slides: a
// target that speeds up mid-capture must show different velocities in maps
// taken before and after the change.
func TestDopplerStageWindowSlides(t *testing.T) {
	const window = 32
	p := dopplerParams()
	slow := scattererFrames(p, window, 4, 0.5)
	// Continue from where the slow segment ended, twice as fast.
	endR := 4 - 0.5*float64(window-1)/p.FrameRate
	fast := make([]*fmcw.Frame, window)
	for i := range fast {
		tm := float64(window+i) / p.FrameRate
		d := endR - 2.5*float64(i+1)/p.FrameRate
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		fast[i] = fmcw.Synthesize(p, []fmcw.Return{ret}, tm, nil)
	}
	mSlow := lastDopplerMap(t, slow, window)
	mFast := lastDopplerMap(t, append(slow, fast...), window)
	vSlow, _, ok1 := mSlow.PeakVelocityAtRange(4, 2)
	vFast, _, ok2 := mFast.PeakVelocityAtRange(endR, 2)
	if !ok1 || !ok2 {
		t.Fatal("missing Doppler peaks")
	}
	if vFast <= vSlow+0.5 {
		t.Fatalf("window did not slide: velocity before %v, after speed-up %v", vSlow, vFast)
	}
}

// TestTrackVelocitySurfaced runs the full velocity-aware chain over a
// straight-line approach and checks the confirmed track carries a Doppler
// radial velocity of the right sign and magnitude.
func TestTrackVelocitySurfaced(t *testing.T) {
	s := testSession(t)
	trk := NewTrackWithVelocity(radar.TrackerConfig{}, s.Scene.Radar)
	fe, pools, plan := frontEnd(s.Scene, 0)
	stages := append(fe, NewDopplerPlanned(plan, 8, 0, pools.Doppler), trk)
	p := New(s.Scene.Stream(0, 40, rand.New(rand.NewSource(17))).UsePool(pools.Frames), stages...).UsePools(pools)
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tracks := trk.Tracks()
	if len(tracks) == 0 {
		t.Fatal("no confirmed tracks")
	}
	// At a 20 Hz frame rate the unambiguous band is ±λ·FrameRate/4; every
	// surfaced estimate must fold into it.
	nyq := s.Scene.Params.Wavelength() * s.Scene.Params.FrameRate / 4
	withV := 0
	for _, tr := range tracks {
		if !tr.HasVelocity {
			continue
		}
		withV++
		if math.Abs(tr.RadialVelocity) > nyq+1e-9 {
			t.Fatalf("velocity %v outside unambiguous band ±%v", tr.RadialVelocity, nyq)
		}
	}
	if withV == 0 {
		t.Fatal("no track carries a radial-velocity estimate")
	}
}
