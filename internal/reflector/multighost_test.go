package reflector

import (
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// TestMultiplePhantomsSimultaneously exercises §5.2's claim that the
// multiple antennas can generate multiple phantoms at once: two ghost
// sessions on different antennas must both appear to the eavesdropper.
func TestMultiplePhantomsSimultaneously(t *testing.T) {
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.002
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	sc.Room.Speckle = 0
	tagCfg := DefaultConfig(geom.Point{X: sc.Radar.Position.X - 0.5, Y: 1.2}, 0)
	tag, err := New(tagCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}

	// Two breathing phantoms on different antennas at different ranges.
	if _, err := ctl.ProgramBreathing(0, 2.0, 0.2, 0.005, 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.ProgramBreathing(5, 4.3, 0.3, 0.005, 10, 0); err != nil {
		t.Fatal(err)
	}
	want1 := sc.Radar.DistanceOf(tagCfg.AntennaPosition(0)) + 2.0
	want2 := sc.Radar.DistanceOf(tagCfg.AntennaPosition(5)) + 4.3

	rng := rand.New(rand.NewSource(11))
	frames := sc.Capture(0, 30, rng)
	// The far phantom's power is ~(d1/d2)^4 of the near one's; use a more
	// sensitive detector than the default relative threshold.
	cfg := radar.DefaultConfig()
	cfg.MinPeakRatio = 0.02
	pr := radar.NewProcessor(cfg)
	found1, found2 := 0, 0
	for _, dets := range processFrames(pr, frames, sc.Radar) {
		for _, d := range dets {
			if math.Abs(d.Range-want1) < 0.4 {
				found1++
			}
			if math.Abs(d.Range-want2) < 0.4 {
				found2++
			}
		}
	}
	if found1 < 10 || found2 < 10 {
		t.Fatalf("phantoms visible in %d and %d of 29 frames", found1, found2)
	}
	// Both breathing rates must be recoverable independently.
	ex := radar.BreathingExtractor{}
	_, phase1 := ex.PhaseSeries(frames, want1)
	_, phase2 := ex.PhaseSeries(frames, want2)
	if len(phase1) == 0 || len(phase2) == 0 {
		t.Fatal("phase series empty")
	}
	// (Rates need a longer capture to estimate precisely; the full check is
	// in Fig 14. Here we assert the two phase traces differ, i.e. the
	// phantoms are independent.)
	diff := 0.0
	for i := range phase1 {
		diff += math.Abs((phase1[i] - phase1[0]) - (phase2[i] - phase2[0]))
	}
	if diff < 1e-6 {
		t.Fatal("the two phantoms share a phase trace")
	}
}

// TestStationaryGhostAliasing documents a physical corner of the switching
// design: a stationary phantom whose switching frequency is an exact
// integer multiple of the radar frame rate produces identical beat phase in
// every frame, so successive-frame subtraction erases it (the free-running
// modulator phase advances by an exact multiple of 2π between captures).
// Raw (non-subtracted) processing still sees it, which is what breathing
// monitors use.
func TestStationaryGhostAliasing(t *testing.T) {
	params := fmcw.DefaultParams() // 20 Hz frames
	params.NoiseStd = 0
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	sc.Room.Speckle = 0
	tagCfg := DefaultConfig(geom.Point{X: sc.Radar.Position.X - 0.5, Y: 1.2}, 0)
	tag, err := New(tagCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}
	// Pick the extra distance whose f_switch is exactly 60 kHz = 3000 x
	// the 20 Hz frame rate: the exact alias.
	extra := tagCfg.SpoofedExtraDistance(60e3)
	if _, err := ctl.ProgramBreathing(0, extra, 0, 0, 10, 0); err != nil {
		t.Fatal(err)
	}
	fsw := tagCfg.SwitchFrequency(extra)
	if rem := math.Mod(fsw, params.FrameRate); math.Abs(rem) > 1e-6 {
		t.Fatalf("test premise broken: f_switch %v not a frame-rate multiple (rem %v)", fsw, rem)
	}
	f0, err := sc.FrameAt(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := sc.FrameAt(nil, 1/params.FrameRate, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := f1.Sub(f0)
	pr := radar.NewProcessor(radar.DefaultConfig())
	if dets := pr.Detect(pr.RangeAngle(diff), sc.Radar); len(dets) != 0 {
		t.Fatalf("aliased stationary ghost should cancel under subtraction, got %v", dets)
	}
	// Raw processing still sees the phantom.
	prof := pr.RangeAngle(f0)
	want := sc.Radar.DistanceOf(tagCfg.AntennaPosition(0)) + extra
	found := false
	for _, d := range pr.Detect(prof, sc.Radar) {
		if math.Abs(d.Range-want) < 0.4 {
			found = true
		}
	}
	if !found {
		t.Fatal("aliased ghost missing from raw profile")
	}
}
