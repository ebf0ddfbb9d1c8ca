package fmcw

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"rfprotect/internal/dsp"
	"rfprotect/internal/geom"
)

func TestDefaultParamsPhysics(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.RangeResolution(); math.Abs(got-0.1499) > 0.001 {
		t.Fatalf("range resolution %v, want ~0.15 m", got)
	}
	if got := p.Slope(); math.Abs(got-2e12) > 1e6 {
		t.Fatalf("slope %v, want 2e12", got)
	}
	if p.SamplesPerChirp() != 512 {
		t.Fatalf("samples per chirp %d, want 512", p.SamplesPerChirp())
	}
	if p.MaxRange() < 30 {
		t.Fatalf("max range %v too small for a home", p.MaxRange())
	}
	if math.Abs(p.Wavelength()-C/6.5e9) > 1e-12 {
		t.Fatal("wavelength")
	}
	if math.Abs(p.Spacing()-p.Wavelength()/2) > 1e-12 {
		t.Fatal("default spacing should be lambda/2")
	}
	if math.Abs(p.AngularResolution()-math.Pi/7) > 1e-12 {
		t.Fatal("angular resolution")
	}
}

func TestParamsValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultParams()
	cases := []func(*Params){
		func(p *Params) { p.CenterFreq = 0 },
		func(p *Params) { p.Bandwidth = -1 },
		func(p *Params) { p.ChirpDuration = 0 },
		func(p *Params) { p.SampleRate = 0 },
		func(p *Params) { p.NumAntennas = 0 },
		func(p *Params) { p.NoiseStd = -0.1 },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBeatFrequencyRoundTrip(t *testing.T) {
	p := DefaultParams()
	f := func(d float64) bool {
		d = math.Abs(math.Mod(d, 30))
		return math.Abs(p.DistanceForBeat(p.BeatFrequency(d))-d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rangeFFT returns the magnitude spectrum of antenna 0.
func rangeFFT(f *Frame) []float64 {
	x := make([]complex128, len(f.Data[0]))
	copy(x, f.Data[0])
	dsp.FFTInPlace(x)
	return dsp.Magnitude(x)
}

func TestSynthesizeSingleTargetAtCorrectBin(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0
	for _, dist := range []float64{1.5, 3.0, 7.5, 12.0} {
		ret := Return{Delay: 2 * dist / C, Amplitude: 1, AoA: math.Pi / 2}
		fr := Synthesize(p, []Return{ret}, 0, nil)
		mag := rangeFFT(fr)
		best := 0
		for i := 1; i < len(mag)/2; i++ {
			if mag[i] > mag[best] {
				best = i
			}
		}
		binDist := p.DistanceForBeat(float64(best) * p.SampleRate / float64(len(mag)))
		if math.Abs(binDist-dist) > p.RangeResolution() {
			t.Fatalf("target at %v m detected at %v m", dist, binDist)
		}
	}
}

func TestFreqShiftMovesApparentDistance(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0
	const trueDist = 2.0
	const shift = 40e3 // Hz -> extra distance C*shift/(2*sl) = 3 m
	ret := Return{Delay: 2 * trueDist / C, Amplitude: 1, AoA: math.Pi / 2, FreqShift: shift}
	fr := Synthesize(p, []Return{ret}, 0, nil)
	mag := rangeFFT(fr)
	best := 0
	for i := 1; i < len(mag)/2; i++ {
		if mag[i] > mag[best] {
			best = i
		}
	}
	got := p.DistanceForBeat(float64(best) * p.SampleRate / float64(len(mag)))
	want := trueDist + C*shift/(2*p.Slope())
	if math.Abs(got-want) > p.RangeResolution() {
		t.Fatalf("apparent distance %v, want %v", got, want)
	}
}

func TestSteeringPhaseAcrossAntennas(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0
	aoa := 1.1
	ret := Return{Delay: 2 * 3.0 / C, Amplitude: 1, AoA: aoa}
	fr := Synthesize(p, []Return{ret}, 0, nil)
	// The phase difference between adjacent antennas at the same sample must
	// be -2π·d·cos(aoa)/λ.
	want := -2 * math.Pi * p.Spacing() * math.Cos(aoa) / p.Wavelength()
	for k := 0; k+1 < p.NumAntennas; k++ {
		got := cmplx.Phase(fr.Data[k+1][10] / fr.Data[k][10])
		if math.Abs(geom.AngleDiff(got, want)) > 1e-9 {
			t.Fatalf("antenna %d->%d phase %v, want %v", k, k+1, got, want)
		}
	}
}

func TestSynthesizeSuperposition(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0
	r1 := Return{Delay: 2 * 2.0 / C, Amplitude: 0.7, AoA: 1.0}
	r2 := Return{Delay: 2 * 5.0 / C, Amplitude: 0.3, AoA: 2.0, Phase: 0.5}
	both := Synthesize(p, []Return{r1, r2}, 0, nil)
	a := Synthesize(p, []Return{r1}, 0, nil)
	b := Synthesize(p, []Return{r2}, 0, nil)
	for k := range both.Data {
		for i := range both.Data[k] {
			if cmplx.Abs(both.Data[k][i]-(a.Data[k][i]+b.Data[k][i])) > 1e-9 {
				t.Fatal("synthesis is not linear in returns")
			}
		}
	}
}

func TestSubRemovesStaticReturns(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0
	static := Return{Delay: 2 * 4.0 / C, Amplitude: 1, AoA: 1.3}
	moving1 := Return{Delay: 2 * 6.0 / C, Amplitude: 0.5, AoA: 0.8}
	moving2 := Return{Delay: 2 * 6.2 / C, Amplitude: 0.5, AoA: 0.8}
	f1 := Synthesize(p, []Return{static, moving1}, 0, nil)
	f2 := Synthesize(p, []Return{static, moving2}, 0.05, nil)
	diff := f2.Sub(f1)
	mag := rangeFFT(diff)
	n := len(mag)
	staticBin := int(math.Round(p.BeatFrequency(4.0) / p.SampleRate * float64(n)))
	movingBin := int(math.Round(p.BeatFrequency(6.1) / p.SampleRate * float64(n)))
	if mag[staticBin] > 0.05*mag[movingBin] {
		t.Fatalf("static return survived subtraction: static %v vs moving %v", mag[staticBin], mag[movingBin])
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	p := DefaultParams()
	p.NoiseStd = 0.5
	fr := NewFrame(p, 0)
	fr.AddNoise(7)
	var sum, sumSq float64
	n := 0
	for k := range fr.Data {
		for _, v := range fr.Data[k] {
			sum += real(v) + imag(v)
			sumSq += real(v)*real(v) + imag(v)*imag(v)
			n += 2
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("noise mean %v", mean)
	}
	if math.Abs(std-0.5) > 0.02 {
		t.Fatalf("noise std %v, want 0.5", std)
	}
}

func TestArrayGeometry(t *testing.T) {
	a := Array{Position: geom.Point{X: 0, Y: 0}, AxisAngle: 0, Facing: 1}
	p := geom.Point{X: 0, Y: 5}
	if aoa := a.AoAOf(p); math.Abs(aoa-math.Pi/2) > 1e-12 {
		t.Fatalf("AoA = %v", aoa)
	}
	if d := a.DistanceOf(p); d != 5 {
		t.Fatalf("distance = %v", d)
	}
	back := a.PointAt(5, math.Pi/2)
	if back.Dist(p) > 1e-9 {
		t.Fatalf("PointAt roundtrip: %v", back)
	}
}

func TestArrayRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Array{
			Position:  geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()},
			AxisAngle: rng.Float64() * 2 * math.Pi,
			Facing:    1,
		}
		if rng.Intn(2) == 0 {
			a.Facing = -1
		}
		// A point on the facing side.
		aoa := rng.Float64() * math.Pi
		r := 0.5 + rng.Float64()*10
		p := a.PointAt(r, aoa)
		return math.Abs(a.AoAOf(p)-aoa) < 1e-9 && math.Abs(a.DistanceOf(p)-r) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReturnFrom(t *testing.T) {
	a := Array{Position: geom.Point{}, AxisAngle: 0, Facing: 1}
	p := geom.Point{X: 3, Y: 4}
	r := a.ReturnFrom(p, 0.8, 1e-9, 0.25)
	if math.Abs(r.Delay-(2*5/C+1e-9)) > 1e-15 {
		t.Fatalf("delay = %v", r.Delay)
	}
	if r.Amplitude != 0.8 || r.Phase != 0.25 {
		t.Fatal("amplitude/phase not propagated")
	}
	if math.Abs(r.AoA-math.Atan2(4, 3)) > 1e-12 {
		t.Fatalf("AoA = %v", r.AoA)
	}
}

func BenchmarkSynthesizeFrame(b *testing.B) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(1))
	returns := make([]Return, 10)
	for i := range returns {
		returns[i] = Return{Delay: 2 * (1 + float64(i)) / C, Amplitude: 0.5, AoA: 1.0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(p, returns, 0, rng)
	}
}
