package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/radar"
)

// TestPooledRunRecyclesBuffers checks the ownership loop actually closes:
// after a pooled run every in-flight buffer has come back to its pool, so a
// longer capture reuses them instead of allocating.
func TestPooledRunRecyclesBuffers(t *testing.T) {
	const nFrames = 12
	s := testSession(t)
	stages, pl, plan := frontEnd(s.Scene, 0)
	stages = append(stages, NewDopplerPlanned(plan, 4, 0, pl.Doppler))
	src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(1))).UsePool(pl.Frames)
	if _, err := New(src, stages...).UsePools(pl).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Run keeps exactly one raw frame + one diff in flight, both
	// recycled at item completion. The pool should hold a tiny constant
	// number of frames, not one per processed frame.
	if got := pl.Frames.Len(); got == 0 || got > 4 {
		t.Fatalf("FramePool holds %d frames after run, want a small nonzero count", got)
	}
	if got := pl.Profiles.Len(); got == 0 || got > 2 {
		t.Fatalf("ProfilePool holds %d profiles after run, want 1-2", got)
	}
	if got := pl.Doppler.Len(); got == 0 || got > 2 {
		t.Fatalf("DopplerPool holds %d maps after run, want 1-2", got)
	}
}

// TestStagesZeroAllocsSteadyState drives the three buffer-producing stages
// directly (no pipeline loop, Workers: 1) and asserts the steady state
// allocates nothing per frame: the subtract stage, the range-FFT/beamform
// stage, and the sliding-window Doppler stage.
func TestStagesZeroAllocsSteadyState(t *testing.T) {
	p := fmcw.DefaultParams()
	p.SampleRate = 128e3 // 64 samples per chirp keeps the guard fast
	p.NumAntennas = 4
	array := fmcw.Array{Facing: 1}
	rng := rand.New(rand.NewSource(3))
	// A small ring of distinct source frames so the differencer and the
	// Doppler window see changing data, as in a real capture.
	var templates []*fmcw.Frame
	for i := 0; i < 4; i++ {
		rets := []fmcw.Return{
			array.ReturnFrom(geom.Point{X: 1.5, Y: 3.5}, 1, 0, rng.Float64()),
		}
		templates = append(templates, fmcw.Synthesize(p, rets, float64(i)/p.FrameRate, rng))
	}

	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.PlanFrontEnd(cfg, p)
	pl := NewPools(p)
	fe := FrontEndStagesPlanned(plan, array, pl)
	bg, ra := fe[0], fe[1]
	dop := NewDopplerPlanned(plan, len(templates), 0, pl.Doppler)

	var it Item
	step := func(i int) {
		f := pl.Frames.Get(float64(i) / p.FrameRate)
		f.CopyFrom(templates[i%len(templates)])
		it = Item{Index: i, Frame: f}
		if err := bg.Process(nil, &it); err != nil {
			t.Fatal(err)
		}
		if err := ra.Process(nil, &it); err != nil {
			t.Fatal(err)
		}
		if err := dop.Process(nil, &it); err != nil {
			t.Fatal(err)
		}
		pl.Frames.Put(it.Frame)
		pl.Frames.Put(it.Diff)
		pl.Profiles.Put(it.Profile)
		pl.Doppler.Put(it.RangeDoppler)
	}
	// Warm-up: fill the differencer history and the Doppler window, build
	// processor scratch, and charge the pools.
	for i := 0; i < 2*len(templates); i++ {
		step(i)
	}
	i := 2 * len(templates)
	if allocs := testing.AllocsPerRun(100, func() {
		step(i)
		i++
	}); allocs != 0 {
		t.Fatalf("pooled stage chain allocates %v per frame in steady state, want 0", allocs)
	}
}

// TestPlannedChainZeroAllocsSteadyState drives the complete compiled chain —
// subtract, beamform, peak-extract with detection-buffer reuse, Doppler,
// tracking — and asserts a warmed-up frame allocates nothing anywhere.
func TestPlannedChainZeroAllocsSteadyState(t *testing.T) {
	p := fmcw.DefaultParams()
	p.SampleRate = 128e3 // 64 samples per chirp keeps the guard fast
	p.NumAntennas = 4
	array := fmcw.Array{Facing: 1}
	rng := rand.New(rand.NewSource(3))
	var templates []*fmcw.Frame
	for i := 0; i < 4; i++ {
		rets := []fmcw.Return{
			array.ReturnFrom(geom.Point{X: 1.5, Y: 3.5}, 1, 0, rng.Float64()),
		}
		templates = append(templates, fmcw.Synthesize(p, rets, float64(i)/p.FrameRate, rng))
	}

	cfg := radar.DefaultConfig()
	cfg.Workers = 1
	plan := radar.PlanFrontEnd(cfg, p)
	pools := NewPools(p)
	stages := FrontEndStagesPlanned(plan, array, pools)
	stages = append(stages, NewDopplerPlanned(plan, len(templates), 0, pools.Doppler))
	tcfg := radar.TrackerConfig{ConfirmHits: 1, MinTrackPoints: 1}
	trk := NewTrack(tcfg)
	stages = append(stages, trk)

	var it Item
	var detBuf []radar.Detection
	step := func(i int) {
		f := pools.Frames.Get(float64(i) / p.FrameRate)
		f.CopyFrom(templates[i%len(templates)])
		it = Item{Index: i, Frame: f}
		it.Detections = detBuf[:0] // what Run's held Item preserves
		for _, st := range stages {
			if err := st.Process(nil, &it); err != nil {
				t.Fatal(err)
			}
		}
		detBuf = it.Detections
		pools.Frames.Put(it.Frame)
		pools.Frames.Put(it.Diff)
		pools.Profiles.Put(it.Profile)
		pools.Doppler.Put(it.RangeDoppler)
	}
	for i := 0; i < 16; i++ { // warm every pool, window, and track
		step(i)
	}
	for _, tr := range trk.Tracks() { // pre-grow point history past the run
		pts := make([]radar.TimedPoint, len(tr.Points), len(tr.Points)+4096)
		copy(pts, tr.Points)
		tr.Points = pts
	}
	i := 16
	if allocs := testing.AllocsPerRun(100, func() {
		step(i)
		i++
	}); allocs != 0 {
		t.Fatalf("planned chain allocates %v per frame in steady state, want 0", allocs)
	}
}
