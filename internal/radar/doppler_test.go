package radar

import (
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/dsp"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// burstScene builds a quiet home scene for Doppler tests.
func burstScene() *scene.Scene {
	params := fmcw.DefaultParams()
	params.NoiseStd = 0.001
	sc := scene.NewScene(scene.HomeRoom(), params)
	sc.Multipath = false
	sc.Room.Speckle = 0
	return sc
}

func TestRangeDopplerMovingTarget(t *testing.T) {
	sc := burstScene()
	// Human walking straight at the radar at 1 m/s.
	start := geom.Point{X: sc.Radar.Position.X, Y: 6}
	end := geom.Point{X: sc.Radar.Position.X, Y: 2}
	traj := geom.Trajectory{start, end}
	h := scene.NewHuman(traj, 1.0/4) // 4 m over 4 s -> 1 m/s approach
	h.Breathing = scene.Breathing{}
	sc.Humans = []*scene.Human{h}

	const pri = 1e-3
	const nChirps = 128
	rng := rand.New(rand.NewSource(1))
	burst := captureBurst(sc, 1.0, nChirps, pri, rng)
	pr := NewProcessor(DefaultConfig())
	rd := rangeDoppler(pr, burst, 0, pri)
	rd.rejectStatic(1)
	targets := rd.detectMoving(0.3, 4)
	if len(targets) == 0 {
		t.Fatal("no moving target detected")
	}
	tgt := targets[0]
	wantRange := sc.Radar.DistanceOf(h.PositionAt(1.0))
	if math.Abs(tgt.Range-wantRange) > 0.3 {
		t.Fatalf("range %v, want %v", tgt.Range, wantRange)
	}
	if math.Abs(tgt.Velocity-1.0) > 0.25 {
		t.Fatalf("velocity %v, want ~1.0 m/s", tgt.Velocity)
	}
}

func TestRangeDopplerStaticRejection(t *testing.T) {
	sc := burstScene()
	sc.Clutter = []scene.Clutter{{Pos: geom.Point{X: sc.Radar.Position.X - 2, Y: 3}, Amplitude: 2}}
	// One mover.
	traj := geom.Trajectory{{X: sc.Radar.Position.X + 2, Y: 5}, {X: sc.Radar.Position.X + 2, Y: 3}}
	h := scene.NewHuman(traj, 1.0/2)
	h.Breathing = scene.Breathing{}
	sc.Humans = []*scene.Human{h}

	const pri = 1e-3
	rng := rand.New(rand.NewSource(2))
	burst := captureBurst(sc, 0.5, 128, pri, rng)
	pr := NewProcessor(DefaultConfig())
	rd := rangeDoppler(pr, burst, 0, pri)

	// Before rejection the static clutter dominates the zero-Doppler column.
	clutterBin := int(math.Round(sc.Radar.DistanceOf(sc.Clutter[0].Pos) /
		rd.RangeOfBin(1)))
	center := rd.DopplerBins / 2
	if rd.At(clutterBin, center) == 0 {
		t.Fatal("clutter missing from zero-Doppler before rejection")
	}
	rd.rejectStatic(1)
	if rd.At(clutterBin, center) != 0 {
		t.Fatal("static rejection left the zero-Doppler column intact")
	}
	targets := rd.detectMoving(0.3, 4)
	if len(targets) == 0 {
		t.Fatal("mover lost after static rejection")
	}
	for _, tgt := range targets {
		if math.Abs(tgt.Velocity) < 0.1 {
			t.Fatalf("static survivor: %+v", tgt)
		}
	}
}

func TestGhostSurvivesDopplerRejection(t *testing.T) {
	// §3 names two static-rejection strategies; RF-Protect must beat both.
	// The free-running switch gives the ghost an aliased Doppler signature,
	// so zero-Doppler rejection does not remove it.
	sc := burstScene()
	tagCfg := reflector.DefaultConfig(geom.Point{X: sc.Radar.Position.X - 0.5, Y: 1.2}, 0)
	tag, err := reflector.New(tagCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := reflector.NewController(tag)
	sc.Sources = []scene.ReturnSource{tag}
	const extra = 3.0
	if _, err := ctl.ProgramBreathing(2, extra, 0.25, 0.005, 10, 0); err != nil {
		t.Fatal(err)
	}

	const pri = 1e-3
	rng := rand.New(rand.NewSource(3))
	burst := captureBurst(sc, 1.0, 128, pri, rng)
	pr := NewProcessor(DefaultConfig())
	rd := rangeDoppler(pr, burst, 0, pri)
	rd.rejectStatic(1)
	targets := rd.detectMoving(0.2, 6)
	ghostRange := sc.Radar.DistanceOf(tagCfg.AntennaPosition(2)) + extra
	found := false
	for _, tgt := range targets {
		if math.Abs(tgt.Range-ghostRange) < 0.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ghost at %v m removed by Doppler rejection (targets %+v)", ghostRange, targets)
	}
}

func TestVelocityBinRoundTrip(t *testing.T) {
	m := &RangeDopplerMap{Params: fmcw.DefaultParams(), PRI: 0.5e-3, DopplerBins: 64}
	for _, v := range []float64{-3, -0.5, 0, 1.2, 5} {
		if got := m.VelocityOfBin(m.binOfVelocity(v)); math.Abs(got-v) > 1e-9 {
			t.Fatalf("velocity %v round-trips to %v", v, got)
		}
	}
	if m.MaxUnambiguousVelocity() <= 0 {
		t.Fatal("Nyquist velocity")
	}
}

func TestAliasedDoppler(t *testing.T) {
	const pri = 0.5e-3 // PRF 2 kHz
	cases := []struct{ in, want float64 }{
		{0, 0},
		{500, 500},
		{1500, -500},
		{2000, 0},
		{-700, -700},
		{-1300, 700},
	}
	for _, c := range cases {
		if got := AliasedDoppler(c.in, pri); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AliasedDoppler(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRangeDopplerEmptyBurst(t *testing.T) {
	pr := NewProcessor(DefaultConfig())
	rd := rangeDoppler(pr, nil, 0, 1e-3)
	if rd.detectMoving(0.5, 4) != nil {
		t.Fatal("empty burst should detect nothing")
	}
}

// rangeDoppler is the allocating range–Doppler reference: the processor's
// plan for the burst's shape, run into a fresh map.
func rangeDoppler(pr *Processor, chirps []*fmcw.Frame, antenna int, pri float64) *RangeDopplerMap {
	m := &RangeDopplerMap{}
	if len(chirps) > 0 {
		if err := pr.Plan(chirps[0].Params).RangeDopplerInto(nil, m, chirps, antenna, pri); err != nil {
			panic(err)
		}
	}
	return m
}

// captureBurst synthesizes a chirp burst for Doppler processing: nChirps
// consecutive chirps spaced pri seconds apart starting at t0.
func captureBurst(sc *scene.Scene, t0 float64, nChirps int, pri float64, rng *rand.Rand) []*fmcw.Frame {
	out := make([]*fmcw.Frame, nChirps)
	for k := range out {
		// A nil ctx never cancels, so FrameAt cannot fail.
		out[k], _ = sc.FrameAt(nil, t0+float64(k)*pri, rng)
	}
	return out
}

// binOfVelocity inverts VelocityOfBin.
func (m *RangeDopplerMap) binOfVelocity(v float64) float64 {
	fd := -2 * v / m.Params.Wavelength()
	return fd*float64(m.DopplerBins)*m.PRI + float64(m.DopplerBins)/2
}

// rejectStatic zeroes the zero-Doppler ridge (±guard bins) in place,
// returning the map — Doppler-based static-reflector rejection, the
// alternative to background subtraction that §3 names.
func (m *RangeDopplerMap) rejectStatic(guard int) *RangeDopplerMap {
	if m.DopplerBins == 0 {
		return m
	}
	center := m.DopplerBins / 2
	for r := 0; r < m.RangeBins; r++ {
		for d := center - guard; d <= center+guard; d++ {
			if d >= 0 && d < m.DopplerBins {
				m.Power[r*m.DopplerBins+d] = 0
			}
		}
	}
	return m
}

// movingTarget is a detection in range–Doppler space.
type movingTarget struct {
	Range    float64 // meters
	Velocity float64 // m/s radial, positive approaching
	Power    float64
}

// detectMoving extracts moving targets from a static-rejected map: 2-D
// peaks above threshold·maxPower.
func (m *RangeDopplerMap) detectMoving(thresholdFrac float64, maxTargets int) []movingTarget {
	if len(m.Power) == 0 {
		return nil
	}
	maxPower := 0.0
	for _, v := range m.Power {
		if v > maxPower {
			maxPower = v
		}
	}
	if maxPower == 0 {
		return nil
	}
	peaks := dsp.FindPeaks2D(m.Power, m.RangeBins, m.DopplerBins, thresholdFrac*maxPower, 2)
	if maxTargets > 0 && len(peaks) > maxTargets {
		peaks = peaks[:maxTargets]
	}
	out := make([]movingTarget, 0, len(peaks))
	for _, pk := range peaks {
		rowSlice := m.Power[pk.Row*m.DopplerBins : (pk.Row+1)*m.DopplerBins]
		dOff := dsp.QuadraticInterp(rowSlice, pk.Col)
		col := make([]float64, m.RangeBins)
		for r := 0; r < m.RangeBins; r++ {
			col[r] = m.At(r, pk.Col)
		}
		rOff := dsp.QuadraticInterp(col, pk.Row)
		out = append(out, movingTarget{
			Range:    m.RangeOfBin(float64(pk.Row) + rOff),
			Velocity: m.VelocityOfBin(float64(pk.Col) + dOff),
			Power:    pk.Value,
		})
	}
	return out
}
