package scene

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
)

func TestRooms(t *testing.T) {
	office := OfficeRoom()
	if office.Width != 10.0 || office.Height != 6.6 {
		t.Fatalf("office dims %vx%v", office.Width, office.Height)
	}
	if len(office.Cabinets) == 0 {
		t.Fatal("office should have cabinet multipath sources")
	}
	home := HomeRoom()
	if home.Width != 15.24 || home.Height != 7.62 {
		t.Fatalf("home dims %vx%v", home.Width, home.Height)
	}
	if len(home.Cabinets) != 0 {
		t.Fatal("home should have no cabinets")
	}
	if home.WallReflectivity >= office.WallReflectivity {
		t.Fatal("office must be the harsher multipath environment")
	}
	if len(office.Mirrors()) != 4+len(office.Cabinets) {
		t.Fatal("mirrors = walls + cabinets")
	}
}

func TestRoomContainsClamp(t *testing.T) {
	r := HomeRoom()
	if !r.Contains(geom.Point{X: 1, Y: 1}) {
		t.Fatal("interior point")
	}
	if r.Contains(geom.Point{X: -1, Y: 1}) {
		t.Fatal("exterior point")
	}
	c := r.Clamp(geom.Point{X: -5, Y: 100}, 0.5)
	if c.X != 0.5 || c.Y != r.Height-0.5 {
		t.Fatalf("Clamp = %v", c)
	}
}

func TestMirrorReflect(t *testing.T) {
	m := Mirror{Point: geom.Point{X: 0, Y: 2}, Normal: geom.Point{X: 0, Y: 1}}
	got := m.Reflect(geom.Point{X: 3, Y: 5})
	if got.Dist(geom.Point{X: 3, Y: -1}) > 1e-12 {
		t.Fatalf("Reflect = %v", got)
	}
}

func TestMirrorReflectInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64() * 2 * math.Pi
		m := Mirror{
			Point:  geom.Point{X: rng.NormFloat64() * 3, Y: rng.NormFloat64() * 3},
			Normal: geom.Point{X: math.Cos(a), Y: math.Sin(a)},
		}
		p := geom.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
		return m.Reflect(m.Reflect(p)).Dist(p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBreathingDisplacement(t *testing.T) {
	b := Breathing{Rate: 0.25, Amplitude: 0.005}
	if b.Displacement(0) != 0 {
		t.Fatal("phase 0 at t=0")
	}
	if got := b.Displacement(1); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("quarter period displacement %v", got)
	}
	if (Breathing{}).Displacement(1) != 0 {
		t.Fatal("zero breathing should be zero")
	}
}

func TestHumanPositionInterpolation(t *testing.T) {
	h := NewHuman(geom.Trajectory{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}, 2) // 2 samples/s
	if h.PositionAt(-1) != (geom.Point{X: 0, Y: 0}) {
		t.Fatal("before start")
	}
	if p := h.PositionAt(0.25); p.Dist(geom.Point{X: 0.5, Y: 0}) > 1e-12 {
		t.Fatalf("t=0.25: %v", p)
	}
	if p := h.PositionAt(10); p != (geom.Point{X: 1, Y: 1}) {
		t.Fatalf("after end: %v", p)
	}
	if !h.Active(0.5) || h.Active(1.5) {
		t.Fatal("Active window wrong")
	}
	empty := &Human{}
	if empty.PositionAt(0) != (geom.Point{}) || empty.Active(0) {
		t.Fatal("empty human")
	}
}

func TestHumanStartOffset(t *testing.T) {
	h := NewHuman(geom.Trajectory{{X: 0, Y: 0}, {X: 2, Y: 0}}, 1)
	h.Start = 5
	if p := h.PositionAt(5.5); p.Dist(geom.Point{X: 1, Y: 0}) > 1e-12 {
		t.Fatalf("offset start: %v", p)
	}
}

func TestFanOrbit(t *testing.T) {
	f := Fan{Center: geom.Point{X: 2, Y: 2}, Radius: 0.3, RotationRate: 1}
	p0 := f.PositionAt(0)
	pHalf := f.PositionAt(0.5)
	if p0.Dist(geom.Point{X: 2.3, Y: 2}) > 1e-12 {
		t.Fatalf("t=0: %v", p0)
	}
	if pHalf.Dist(geom.Point{X: 1.7, Y: 2}) > 1e-9 {
		t.Fatalf("t=0.5: %v", pHalf)
	}
	// Orbit radius is constant.
	for i := 0; i < 10; i++ {
		if math.Abs(f.PositionAt(float64(i)*0.137).Dist(f.Center)-0.3) > 1e-9 {
			t.Fatal("fan left its orbit")
		}
	}
}

func TestSceneReturnsComposition(t *testing.T) {
	s := NewScene(HomeRoom(), fmcw.DefaultParams())
	s.Multipath = false
	s.Humans = []*Human{NewHuman(geom.Trajectory{{X: 5, Y: 3}, {X: 5, Y: 4}}, 1)}
	s.Clutter = []Clutter{{Pos: geom.Point{X: 2, Y: 2}, Amplitude: 0.5}}
	s.Fans = []Fan{{Center: geom.Point{X: 10, Y: 5}, Radius: 0.2, RotationRate: 2, Amplitude: 0.3}}
	rets := s.ReturnsAt(0)
	if len(rets) != 3 {
		t.Fatalf("got %d returns, want 3", len(rets))
	}
	s.Multipath = true
	rets = s.ReturnsAt(0)
	// Human and fan each gain 4 wall images; clutter does not.
	if len(rets) <= 3 {
		t.Fatalf("multipath should add image returns, got %d", len(rets))
	}
}

func TestSceneAmplitudeFalloff(t *testing.T) {
	s := NewScene(HomeRoom(), fmcw.DefaultParams())
	s.Multipath = false
	near := NewHuman(geom.Trajectory{{X: s.Radar.Position.X, Y: 2}}, 1)
	far := NewHuman(geom.Trajectory{{X: s.Radar.Position.X, Y: 4}}, 1)
	s.Humans = []*Human{near, far}
	rets := s.ReturnsAt(0)
	// Amplitude ratio must follow (d_far/d_near)^2 = 4.
	ratio := rets[0].Amplitude / rets[1].Amplitude
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("falloff ratio %v, want 4", ratio)
	}
}

func TestSceneBreathingPhase(t *testing.T) {
	s := NewScene(HomeRoom(), fmcw.DefaultParams())
	s.Multipath = false
	h := NewHuman(geom.Trajectory{{X: 5, Y: 3}}, 1)
	h.Breathing = Breathing{Rate: 0.25, Amplitude: 0.005}
	s.Humans = []*Human{h}
	// At t=1s (quarter period) displacement is +5mm; phase = 4π·δ/λ.
	rets := s.ReturnsAt(1)
	want := 4 * math.Pi * 0.005 / s.Params.Wavelength()
	if math.Abs(rets[0].Phase-want) > 1e-9 {
		t.Fatalf("breathing phase %v, want %v", rets[0].Phase, want)
	}
}

type fixedSource struct{ rets []fmcw.Return }

func (f fixedSource) ReturnsAt(t float64, radar fmcw.Array) []fmcw.Return { return f.rets }

func TestSceneExternalSource(t *testing.T) {
	s := NewScene(HomeRoom(), fmcw.DefaultParams())
	s.Sources = []ReturnSource{fixedSource{rets: []fmcw.Return{{Delay: 1e-8, Amplitude: 1}}}}
	rets := s.ReturnsAt(0)
	if len(rets) != 1 || rets[0].Delay != 1e-8 {
		t.Fatalf("external source returns not included: %v", rets)
	}
}

func TestCaptureTiming(t *testing.T) {
	s := NewScene(HomeRoom(), fmcw.DefaultParams())
	frames := s.Capture(1.0, 3, rand.New(rand.NewSource(1)))
	if len(frames) != 3 {
		t.Fatalf("frames = %d", len(frames))
	}
	dt := 1 / s.Params.FrameRate
	for i, f := range frames {
		want := 1.0 + float64(i)*dt
		if math.Abs(f.Time-want) > 1e-12 {
			t.Fatalf("frame %d time %v want %v", i, f.Time, want)
		}
	}
}

// TestUseFramePoolBitIdentical checks pooled capture: a FrameStream
// routed through UsePool must synthesize bit-identical frames to the
// allocating paths (Capture and FrameAt, same rng draw order),
// and recycled storage must not leak one frame's samples into the next.
func TestUseFramePoolBitIdentical(t *testing.T) {
	s := NewScene(OfficeRoom(), fmcw.DefaultParams())
	s.Humans = []*Human{NewHuman(geom.Trajectory{{X: 5, Y: 3}, {X: 6, Y: 4}}, 1)}
	sameBits := func(what string, got, want *fmcw.Frame) {
		t.Helper()
		if len(got.Data) != len(want.Data) {
			t.Fatalf("%s: antenna count %d vs %d", what, len(got.Data), len(want.Data))
		}
		for k := range want.Data {
			for i, w := range want.Data[k] {
				g := got.Data[k][i]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("%s: antenna %d sample %d: %v vs %v", what, k, i, g, w)
				}
			}
		}
	}

	want := s.Capture(0.5, 4, rand.New(rand.NewSource(7)))
	first, err := s.FrameAt(nil, 0.5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sameBits("FrameAt vs Capture", first, want[0])

	pool := fmcw.NewFramePool(s.Params)
	st := s.Stream(0.5, len(want), rand.New(rand.NewSource(7))).UsePool(pool)
	var prev *fmcw.Frame
	for i, w := range want {
		got, err := st.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every frame after the first must land in the storage just
		// recycled, so the comparison also proves it carries no stale
		// samples from the previous frame.
		if prev != nil && got != prev {
			t.Fatalf("frame %d did not reuse the recycled pool frame", i)
		}
		sameBits("pooled stream", got, w)
		pool.Put(got)
		prev = got
	}
}
