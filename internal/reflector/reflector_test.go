package reflector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func testTag(t *testing.T) (*Reflector, Config) {
	t.Helper()
	cfg := DefaultConfig(geom.Point{X: 4, Y: 0.2}, 0)
	tag, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tag, cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(geom.Point{}, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumAntennas = 0 },
		func(c *Config) { c.Spacing = 0 },
		func(c *Config) { c.Duty = 1 },
		func(c *Config) { c.Duty = -0.1 },
		func(c *Config) { c.ChirpSlope = 0 },
	}
	for i, mutate := range bad {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should reject invalid config", i)
		}
	}
}

func TestAntennaLayout(t *testing.T) {
	cfg := DefaultConfig(geom.Point{X: 1, Y: 2}, math.Pi/2)
	p0 := cfg.AntennaPosition(0)
	p3 := cfg.AntennaPosition(3)
	if p0 != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("antenna 0 at %v", p0)
	}
	if p3.Dist(geom.Point{X: 1, Y: 2.6}) > 1e-12 {
		t.Fatalf("antenna 3 at %v", p3)
	}
}

func TestSwitchFrequencyRoundTrip(t *testing.T) {
	cfg := DefaultConfig(geom.Point{}, 0)
	f := func(d float64) bool {
		d = math.Abs(math.Mod(d, 10))
		return math.Abs(cfg.SpoofedExtraDistance(cfg.SwitchFrequency(d))-d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// 1.5 m extra distance needs tens of kHz, as §5.3 says.
	fsw := cfg.SwitchFrequency(1.5)
	if fsw < 10e3 || fsw > 100e3 {
		t.Fatalf("switch frequency %v Hz not in the tens-of-kHz regime", fsw)
	}
}

func TestHarmonicCoefficients(t *testing.T) {
	cfg := DefaultConfig(geom.Point{}, 0)
	// 50% duty: c0 = 0.5, |c1| = 1/π, c2 = 0, |c3| = 1/(3π).
	if got := cfg.HarmonicCoefficient(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("c0 = %v", got)
	}
	if got := cfg.HarmonicCoefficient(1); math.Abs(got-1/math.Pi) > 1e-12 {
		t.Fatalf("c1 = %v", got)
	}
	if got := cfg.HarmonicCoefficient(2); got > 1e-12 {
		t.Fatalf("c2 = %v, want 0", got)
	}
	if got := cfg.HarmonicCoefficient(3); math.Abs(got-1/(3*math.Pi)) > 1e-12 {
		t.Fatalf("c3 = %v", got)
	}
	// Non-50% duty has even harmonics (the paper's 2·f_switch images).
	cfg.Duty = 0.3
	if got := cfg.HarmonicCoefficient(2); got < 1e-3 {
		t.Fatalf("duty 0.3 c2 = %v, want > 0", got)
	}
	// Symmetric in n.
	if cfg.HarmonicCoefficient(-1) != cfg.HarmonicCoefficient(1) {
		t.Fatal("harmonics not symmetric")
	}
}

func TestProgramLocalDisclosureShape(t *testing.T) {
	tag, _ := testTag(t)
	ctl := NewController(tag)
	traj := geom.Trajectory{{X: 0, Y: 2}, {X: 1, Y: 3}, {X: 2, Y: 4}}
	rec, err := ctl.ProgramLocal(traj, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Start != 1.0 {
		t.Fatalf("start = %v", rec.Start)
	}
	// 2 samples at 5 Hz = 0.4 s => 40 ticks (+1).
	if len(rec.Entries) < 40 {
		t.Fatalf("entries = %d", len(rec.Entries))
	}
	if math.Abs(rec.End()-(1.0+float64(len(rec.Entries))*rec.Tick)) > 1e-12 {
		t.Fatal("End inconsistent")
	}
	for _, e := range rec.Entries {
		if e.Antenna < 0 || e.Antenna >= tag.Config().NumAntennas {
			t.Fatalf("antenna %d out of range", e.Antenna)
		}
		if e.ExtraDistance < 0 {
			t.Fatalf("negative extra distance %v", e.ExtraDistance)
		}
	}
	if got := len(ctl.Records()); got != 1 {
		t.Fatalf("records = %d", got)
	}
}

func TestProgramErrors(t *testing.T) {
	tag, _ := testTag(t)
	ctl := NewController(tag)
	if _, err := ctl.ProgramLocal(nil, 5, 0); err == nil {
		t.Fatal("empty trajectory accepted")
	}
	if _, err := ctl.ProgramLocal(geom.Trajectory{{X: 1, Y: 1}}, 0, 0); err == nil {
		t.Fatal("zero sample rate accepted")
	}
	if _, err := ctl.ProgramForRadar(nil, fmcw.Array{}, 5, 0); err == nil {
		t.Fatal("empty trajectory accepted")
	}
	if _, err := ctl.ProgramBreathing(99, 2, 0.25, 0.005, 10, 0); err == nil {
		t.Fatal("bad antenna accepted")
	}
	if _, err := ctl.ProgramBreathing(0, 2, 0.25, 0.005, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestReturnsOnlyDuringSession(t *testing.T) {
	tag, _ := testTag(t)
	ctl := NewController(tag)
	_, err := ctl.ProgramBreathing(0, 2, 0.25, 0.005, 1.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	arr := fmcw.Array{Position: geom.Point{X: 5, Y: 0}, Facing: 1}
	if rets := tag.ReturnsAt(4.9, arr); len(rets) != 0 {
		t.Fatalf("returns before session start: %v", rets)
	}
	if rets := tag.ReturnsAt(5.5, arr); len(rets) == 0 {
		t.Fatal("no returns during session")
	}
	if rets := tag.ReturnsAt(6.5, arr); len(rets) != 0 {
		t.Fatalf("returns after session end: %v", rets)
	}
}

func TestHarmonicStructureOfReturns(t *testing.T) {
	tag, cfg := testTag(t)
	ctl := NewController(tag)
	ctl.SetAmplitudeMode(AmplitudeRaw)
	if _, err := ctl.ProgramBreathing(2, 3.0, 0.25, 0.005, 10, 0); err != nil {
		t.Fatal(err)
	}
	arr := fmcw.Array{Position: geom.Point{X: 5, Y: 0}, Facing: 1}
	rets := tag.ReturnsAt(1, arr)
	// 50% duty: harmonics -3,-1,0,1,3 (±2 vanish) => 5 returns.
	if len(rets) != 5 {
		t.Fatalf("got %d returns: %v", len(rets), rets)
	}
	fsw := cfg.SwitchFrequency(3.0)
	seen := map[int]bool{}
	for _, r := range rets {
		n := int(math.Round(r.FreqShift / fsw))
		seen[n] = true
		if math.Abs(r.FreqShift-float64(n)*fsw) > 1e-6 {
			t.Fatalf("freq shift %v not a harmonic of %v", r.FreqShift, fsw)
		}
	}
	for _, n := range []int{-3, -1, 0, 1, 3} {
		if !seen[n] {
			t.Fatalf("missing harmonic %d (saw %v)", n, seen)
		}
	}
}

func TestSSBSuppressesNegativeHarmonics(t *testing.T) {
	cfg := DefaultConfig(geom.Point{X: 4, Y: 0.2}, 0)
	cfg.SSB = true
	tag, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tag)
	ctl.SetAmplitudeMode(AmplitudeRaw)
	if _, err := ctl.ProgramBreathing(0, 3.0, 0.25, 0.005, 10, 0); err != nil {
		t.Fatal(err)
	}
	arr := fmcw.Array{Position: geom.Point{X: 5, Y: 0}, Facing: 1}
	for _, r := range tag.ReturnsAt(1, arr) {
		if r.FreqShift < 0 {
			t.Fatalf("negative harmonic with SSB: %v", r)
		}
	}
}

func TestGhostAppearsAtIntendedLocation(t *testing.T) {
	// End to end: program a ghost path, run the eavesdropper pipeline, and
	// check the detected ghost location matches the disclosed intention.
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.003
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false

	// Panel broadside to the radar, ~1.2 m in front (the radar sits behind
	// the wall in the paper's deployment; our scene has no wall attenuation,
	// so depth inside the room is equivalent). Antennas span ±0.5 m
	// laterally, giving the radar a wide fan of spoofable angles.
	tagCfg := DefaultConfig(geom.Point{X: sc.Radar.Position.X - 0.5, Y: 1.2}, 0)
	tag, err := New(tagCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}

	// Ghost walks a diagonal inside the panel's angular fan.
	n := 60
	traj := make(geom.Trajectory, n)
	cx := sc.Radar.Position.X
	for i := range traj {
		f := float64(i) / float64(n-1)
		traj[i] = geom.Point{X: cx - 1 + 2*f, Y: 3 + 2*f}
	}
	rec, err := ctl.ProgramForRadar(traj, sc.Radar, params.FrameRate, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	frames := sc.Capture(0, n, rng)
	pr := radar.NewProcessor(radar.DefaultConfig())
	detSeq := processFrames(pr, frames, sc.Radar)

	// Per-frame oracle matching: the evaluation knows which trajectory was
	// spoofed (square-wave harmonics legitimately add extra phantoms, and
	// the tracker may split tracks — neither is an accuracy error).
	intended := rec.ExpectedObservation(tagCfg, sc.Radar)
	matched, sum := 0, 0.0
	for i, dets := range detSeq {
		ti := frames[i+1].Time
		idx := int((ti - rec.Start) / rec.Tick)
		if idx < 0 || idx >= len(intended) {
			continue
		}
		want := intended[idx]
		best, bestD := -1, 1.5
		for di, d := range dets {
			if e := d.Pos.Dist(want); e < bestD {
				best, bestD = di, e
			}
		}
		if best >= 0 {
			matched++
			sum += bestD
		}
	}
	if matched < len(detSeq)*8/10 {
		t.Fatalf("ghost matched in only %d/%d frames", matched, len(detSeq))
	}
	if mean := sum / float64(matched); mean > 0.3 {
		t.Fatalf("ghost deviates %v m from intention", mean)
	}
	// And the intention itself must be close to the requested trajectory
	// modulo the discrete antenna grid.
	if e := geom.MeanPointwiseError(geom.Trajectory(intended), traj); e > 1.0 {
		t.Fatalf("intended observation %v m from request", e)
	}
}

func TestGhostSurvivesBackgroundSubtraction(t *testing.T) {
	// A switching ghost must survive frame differencing while the tag's
	// static (n=0) component must not.
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.002
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	tagCfg := DefaultConfig(geom.Point{X: sc.Radar.Position.X + 1.2, Y: 0.2}, 0)
	tag, _ := New(tagCfg)
	ctl := NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}
	// Moving ghost: distance ramps over time.
	traj := geom.Trajectory{{X: 7, Y: 3}, {X: 8, Y: 4.5}}
	if _, err := ctl.ProgramForRadar(traj, sc.Radar, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	frames := sc.Capture(0, 20, rng)
	pr := radar.NewProcessor(radar.DefaultConfig())
	found := 0
	for i := 1; i < len(frames); i++ {
		diff := frames[i].Sub(frames[i-1])
		dets := pr.Detect(pr.RangeAngle(diff), sc.Radar)
		for _, d := range dets {
			// Any detection beyond the tag itself counts as the ghost.
			if d.Range > 2.0 {
				found++
				break
			}
		}
	}
	if found < 10 {
		t.Fatalf("ghost visible in only %d/19 subtracted frames", found)
	}
}

func TestBreathingGhostPhase(t *testing.T) {
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.002
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	tagCfg := DefaultConfig(geom.Point{X: sc.Radar.Position.X + 1.2, Y: 0.2}, 0)
	tag, _ := New(tagCfg)
	ctl := NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}
	const rate = 0.3
	rec, err := ctl.ProgramBreathing(2, 3.0, rate, 0.005, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nFrames := 400
	frames := sc.Capture(0, nFrames, rng)
	// The ghost sits at antenna distance + 3 m.
	ghostDist := sc.Radar.DistanceOf(tagCfg.AntennaPosition(2)) + 3.0
	ex := radar.BreathingExtractor{}
	_, phase := ex.PhaseSeries(frames, ghostDist)
	got := radar.EstimateRate(phase, params.FrameRate)
	if math.Abs(got-rate) > 0.05 {
		t.Fatalf("spoofed breathing rate %v Hz, want %v", got, rate)
	}
	_ = rec
}

func BenchmarkReturnsAt(b *testing.B) {
	cfg := DefaultConfig(geom.Point{X: 4, Y: 0.2}, 0)
	tag, _ := New(cfg)
	ctl := NewController(tag)
	traj := geom.Trajectory{{X: 0, Y: 2}, {X: 2, Y: 5}}
	if _, err := ctl.ProgramLocal(traj, 0.2, 0); err != nil {
		b.Fatal(err)
	}
	arr := fmcw.Array{Position: geom.Point{X: 5, Y: 0}, Facing: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag.ReturnsAt(1, arr)
	}
}

// processFrames is the per-frame reference front end: successive-frame
// background subtraction with Frame.Sub, then RangeAngle and Detect on fresh
// buffers, one detection set per frame after the first.
func processFrames(pr *radar.Processor, frames []*fmcw.Frame, array fmcw.Array) [][]radar.Detection {
	var out [][]radar.Detection
	for i := 1; i < len(frames); i++ {
		out = append(out, pr.Detect(pr.RangeAngle(frames[i].Sub(frames[i-1])), array))
	}
	return out
}
