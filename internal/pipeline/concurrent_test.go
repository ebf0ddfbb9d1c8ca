package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// chainOutputs is everything the full stage chain produces over a capture,
// gathered so the sequential and concurrent runs can be compared field by
// field.
type chainOutputs struct {
	frames   int
	dets     [][]radar.Detection
	profiles [][]float64
	tracks   []*radar.Track
	times    []float64
	phase    []float64
	doppler  []float64
}

// runChain executes the full eavesdropper chain — front end, Doppler,
// velocity-aware tracking, breathing, collectors — over a fresh pooled
// capture of nFrames, sequentially (depth == 0) or concurrently with the
// given channel depth.
func runChain(t *testing.T, nFrames, depth int) chainOutputs {
	t.Helper()
	s := testSession(t)
	breathDist := s.Scene.Radar.DistanceOf(s.Tag.Config().AntennaPosition(1))
	fe, pools, plan := frontEnd(s.Scene, 0)
	profsC := &profileCopies{}
	detsC := NewCollectDetections()
	dopC := &dopplerCopies{}
	trk := NewTrackWithVelocity(radar.TrackerConfig{}, s.Scene.Radar)
	breath := NewBreathingPhase(radar.BreathingExtractor{}, breathDist)
	stages := append(fe, NewDopplerPlanned(plan, 8, 0, pools.Doppler), profsC, detsC, dopC, trk, breath)
	src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(17))).UsePool(pools.Frames)
	p := New(src, stages...).UsePools(pools)
	var n int
	var err error
	if depth == 0 {
		n, err = p.Run(context.Background())
	} else {
		n, err = p.RunConcurrent(context.Background(), depth)
	}
	if err != nil {
		t.Fatal(err)
	}
	times, phase := breath.Series()
	return chainOutputs{
		frames:   n,
		dets:     detsC.Detections(),
		profiles: profsC.power,
		tracks:   trk.Tracks(),
		times:    times,
		phase:    phase,
		doppler:  dopC.last,
	}
}

// TestConcurrentEquivalentToSequential is the golden contract of the
// concurrent scheduler: for every channel depth and capture length, the
// stage-overlapped run produces bit-identical output to the sequential one
// — detections, profiles, tracks (positions and velocities), breathing
// phase, and the final range–Doppler map.
func TestConcurrentEquivalentToSequential(t *testing.T) {
	depths := []int{1, 2, runtime.NumCPU()}
	for _, nFrames := range []int{1, 7, 64} {
		want := runChain(t, nFrames, 0)
		if want.frames != nFrames {
			t.Fatalf("sequential run processed %d frames, want %d", want.frames, nFrames)
		}
		seen := map[int]bool{}
		for _, depth := range depths {
			if depth < 1 || seen[depth] {
				continue
			}
			seen[depth] = true
			t.Run(fmt.Sprintf("frames-%d-depth-%d", nFrames, depth), func(t *testing.T) {
				got := runChain(t, nFrames, depth)
				if got.frames != want.frames {
					t.Fatalf("concurrent processed %d frames, want %d", got.frames, want.frames)
				}
				if !reflect.DeepEqual(got.dets, want.dets) {
					t.Fatal("detection sequences differ from sequential run")
				}
				if !reflect.DeepEqual(got.profiles, want.profiles) {
					t.Fatal("profiles differ from sequential run")
				}
				if err := tracksEqual(got.tracks, want.tracks); err != nil {
					t.Fatalf("%v from sequential run", err)
				}
				if !reflect.DeepEqual(got.times, want.times) || !reflect.DeepEqual(got.phase, want.phase) {
					t.Fatal("breathing-phase series differs from sequential run")
				}
				if !reflect.DeepEqual(got.doppler, want.doppler) {
					t.Fatal("range–Doppler map differs from sequential run")
				}
			})
		}
	}
}

// TestConcurrentCancelNoLeak cancels an unbounded concurrent capture
// mid-stream: RunConcurrent must return context.Canceled with every stage
// goroutine joined and no goroutines left behind.
func TestConcurrentCancelNoLeak(t *testing.T) {
	s := testSession(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trk := NewTrack(radar.TrackerConfig{})
	fe, pools, plan := frontEnd(s.Scene, 0)
	stages := append(fe, NewDopplerPlanned(plan, 8, 0, pools.Doppler), trk, &cancelAfter{n: 3, cancel: cancel})
	p := New(s.Scene.Stream(0, -1, rand.New(rand.NewSource(2))).UsePool(pools.Frames), stages...).UsePools(pools)
	frames, err := p.RunConcurrent(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunConcurrent = %v, want context.Canceled", err)
	}
	if frames < 3 {
		t.Fatalf("completed %d frames before cancel, want >= 3", frames)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after canceled concurrent run", before, after)
	}
}

// TestConcurrentCancelBeforeStart returns ctx.Err with zero frames.
func TestConcurrentCancelBeforeStart(t *testing.T) {
	s := testSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fe, pools, _ := frontEnd(s.Scene, 0)
	p := New(s.Scene.Stream(0, 10, rand.New(rand.NewSource(2))).UsePool(pools.Frames), fe...).UsePools(pools)
	frames, err := p.RunConcurrent(ctx, 4)
	if !errors.Is(err, context.Canceled) || frames != 0 {
		t.Fatalf("RunConcurrent = (%d, %v), want (0, context.Canceled)", frames, err)
	}
}

// TestConcurrentStageErrorTagged verifies a stage error aborts the
// concurrent run, joins everything, and stays matchable through the tag.
func TestConcurrentStageErrorTagged(t *testing.T) {
	boom := errors.New("boom")
	frames := []*fmcw.Frame{
		fmcw.NewFrame(fmcw.DefaultParams(), 0),
		fmcw.NewFrame(fmcw.DefaultParams(), 1),
		fmcw.NewFrame(fmcw.DefaultParams(), 2),
	}
	before := runtime.NumGoroutine()
	_, err := New(FromFrames(frames), failStage{err: boom}).RunConcurrent(context.Background(), 2)
	if !errors.Is(err, boom) {
		t.Fatalf("RunConcurrent = %v, want wrapped boom", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after stage error: %d before, %d after", before, after)
	}
}

// errAfterSource fails with its error after emitting n frames.
type errAfterSource struct {
	n    int
	i    int
	err  error
	base fmcw.Params
}

func (s *errAfterSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if s.i >= s.n {
		return nil, s.err
	}
	f := fmcw.NewFrame(s.base, float64(s.i))
	s.i++
	return f, nil
}

// TestConcurrentSourceError propagates a mid-stream source failure.
func TestConcurrentSourceError(t *testing.T) {
	broken := errors.New("antenna unplugged")
	src := &errAfterSource{n: 4, err: broken, base: fmcw.DefaultParams()}
	n, err := New(src, &BackgroundSubtractStage{}).RunConcurrent(context.Background(), 2)
	if !errors.Is(err, broken) {
		t.Fatalf("RunConcurrent = %v, want the source error", err)
	}
	if n > 4 {
		t.Fatalf("counted %d frames, only 4 were emitted", n)
	}
}

// TestConcurrentNoStages falls back to the sequential drain and still
// counts frames.
func TestConcurrentNoStages(t *testing.T) {
	frames := []*fmcw.Frame{
		fmcw.NewFrame(fmcw.DefaultParams(), 0),
		fmcw.NewFrame(fmcw.DefaultParams(), 1),
	}
	n, err := New(FromFrames(frames)).RunConcurrent(context.Background(), 3)
	if err != nil || n != 2 {
		t.Fatalf("RunConcurrent = (%d, %v), want (2, nil)", n, err)
	}
}

// TestPacedSourceRate checks that a paced stream takes at least
// (n-1)/frameRate of wall clock and that an unpaced wrapper passes through.
func TestPacedSourceRate(t *testing.T) {
	mk := func() []*fmcw.Frame {
		p := fmcw.DefaultParams()
		return []*fmcw.Frame{fmcw.NewFrame(p, 0), fmcw.NewFrame(p, 1), fmcw.NewFrame(p, 2), fmcw.NewFrame(p, 3)}
	}
	const rate = 200.0 // 5 ms per frame
	src := NewPaced(FromFrames(mk()), rate)
	start := time.Now()
	n := 0
	for {
		_, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("paced source emitted %d frames, want 4", n)
	}
	if min := 3 * time.Second / 200; time.Since(start) < min {
		t.Fatalf("4 frames at %v Hz took %v, want >= %v", rate, time.Since(start), min)
	}
	// frameRate <= 0 disables pacing entirely.
	fast := NewPaced(FromFrames(mk()), 0)
	start = time.Now()
	for i := 0; i < 4; i++ {
		if _, err := fast.Next(nil); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > time.Second {
		t.Fatal("unpaced source should not wait")
	}
}

// TestPacedSourceCancelDuringWait interrupts the inter-frame wait.
func TestPacedSourceCancelDuringWait(t *testing.T) {
	p := fmcw.DefaultParams()
	src := NewPaced(FromFrames([]*fmcw.Frame{fmcw.NewFrame(p, 0), fmcw.NewFrame(p, 1)}), 0.5) // 2 s interval
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := src.Next(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := src.Next(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the pacing wait")
	}
}
