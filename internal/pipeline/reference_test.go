package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// frontEnd returns the planned front end over the shared plan for the
// default configuration with the given worker count, plus fresh pools for
// the scene's frame shape and the plan itself (for a Doppler stage).
func frontEnd(sc *scene.Scene, workers int) ([]Stage, *Pools, *radar.FrontEndPlan) {
	cfg := radar.DefaultConfig()
	cfg.Workers = workers
	plan := radar.PlanFrontEnd(cfg, sc.Params)
	pools := NewPools(sc.Params)
	return FrontEndStagesPlanned(plan, sc.Radar, pools), pools, plan
}

// referenceFrontEnd is the per-frame reference the planned chain must match
// bit for bit: successive-frame background subtraction with Frame.Sub, then
// Processor.RangeAngle and Processor.Detect on fresh buffers per frame. The
// first frame only seeds the background, so it returns len(frames)-1
// profiles and detection sets.
func referenceFrontEnd(frames []*fmcw.Frame, array fmcw.Array) ([]*radar.Profile, [][]radar.Detection) {
	pr := radar.NewProcessor(radar.DefaultConfig())
	var profs []*radar.Profile
	var dets [][]radar.Detection
	for i := 1; i < len(frames); i++ {
		prof := pr.RangeAngle(frames[i].Sub(frames[i-1]))
		profs = append(profs, prof)
		dets = append(dets, pr.Detect(prof, array))
	}
	return profs, dets
}

// referenceTracks tracks the reference detections exactly as
// NewTrackWithVelocity does downstream of a window-K Doppler stage on
// antenna 0: each frame's non-empty detection set is observed, then — once
// K frames have arrived — the range–Doppler map of the last K frames, on a
// fresh map, stamps the active tracks' velocities.
func referenceTracks(frames []*fmcw.Frame, dets [][]radar.Detection, array fmcw.Array, window int) []*radar.Track {
	tr := radar.NewTracker(radar.TrackerConfig{})
	pr := radar.NewProcessor(radar.DefaultConfig())
	for i, f := range frames {
		if i > 0 && len(dets[i-1]) > 0 {
			tr.Observe(dets[i-1][0].Time, dets[i-1])
		}
		if i+1 >= window {
			m := &radar.RangeDopplerMap{}
			if err := pr.Plan(f.Params).RangeDopplerInto(nil, m, frames[i+1-window:i+1], 0, 1/f.Params.FrameRate); err != nil {
				panic(err)
			}
			tr.AttachVelocities(m, array)
		}
	}
	return tr.Tracks()
}

// frameCopies keeps a copy of every raw frame: frames are recycled once
// their item completes.
type frameCopies struct{ frames []*fmcw.Frame }

func (c *frameCopies) Name() string { return "copy-frames" }

func (c *frameCopies) Process(ctx context.Context, it *Item) error {
	f := fmcw.NewFrame(it.Frame.Params, it.Frame.Time)
	f.CopyFrom(it.Frame)
	c.frames = append(c.frames, f)
	return nil
}

// profileCopies keeps a copy of every profile's power map.
type profileCopies struct{ power [][]float64 }

func (c *profileCopies) Name() string { return "copy-profiles" }

func (c *profileCopies) Process(ctx context.Context, it *Item) error {
	if it.Profile != nil {
		c.power = append(c.power, append([]float64(nil), it.Profile.Power...))
	}
	return nil
}

// dopplerCopies keeps a copy of the last range–Doppler map's power (maps
// are recomputed every frame once the window fills; the last one
// summarizes the capture for equivalence checks).
type dopplerCopies struct{ last []float64 }

func (c *dopplerCopies) Name() string { return "copy-doppler" }

func (c *dopplerCopies) Process(ctx context.Context, it *Item) error {
	if it.RangeDoppler != nil {
		c.last = append(c.last[:0], it.RangeDoppler.Power...)
	}
	return nil
}

// tracksEqual reports whether two track lists agree in identity,
// confirmation, velocity, and every point.
func tracksEqual(got, want []*radar.Track) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tracks, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Confirmed != w.Confirmed ||
			g.HasVelocity != w.HasVelocity || g.RadialVelocity != w.RadialVelocity ||
			!reflect.DeepEqual(g.Points, w.Points) {
			return fmt.Errorf("track %d differs", i)
		}
	}
	return nil
}

// TestPooledEquivalentToUnpooled is the golden contract of the front
// end: for every worker count, the planned chain with every buffer
// recycled — subtract, beamform, peak-extract, Doppler, velocity tracking —
// produces the unpooled per-frame reference's detections and tracks, frame
// for frame and point for point.
func TestPooledEquivalentToUnpooled(t *testing.T) {
	const nFrames = 18
	const seed = 11
	const window = 6
	s := testSession(t)
	array := s.Scene.Radar
	frames := s.Scene.Capture(0, nFrames, rand.New(rand.NewSource(seed)))
	_, wantDets := referenceFrontEnd(frames, array)
	wantTracks := referenceTracks(frames, wantDets, array, window)

	for _, workers := range []int{1, 2, 0} {
		fe, pools, plan := frontEnd(s.Scene, workers)
		detsC := &detectionsCollector{}
		trk := NewTrackWithVelocity(radar.TrackerConfig{}, array)
		stages := append(fe, NewDopplerPlanned(plan, window, 0, pools.Doppler), trk, detsC)
		src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(seed))).UsePool(pools.Frames).UseWorkers(workers)
		n, err := New(src, stages...).UsePools(pools).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n != nFrames {
			t.Fatalf("workers=%d: %d frames, want %d", workers, n, nFrames)
		}
		if !reflect.DeepEqual(detsC.dets, wantDets) {
			t.Fatalf("workers=%d: planned detections differ from the reference", workers)
		}
		if err := tracksEqual(trk.Tracks(), wantTracks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestPlannedEquivalentToUnpooled checks the planned chain's intermediate
// outputs against the unpooled reference: every range–angle power map
// matches Processor.RangeAngle on fresh buffers, and the last range–Doppler
// map matches one computed on a fresh map over the reference's last window
// of frames.
func TestPlannedEquivalentToUnpooled(t *testing.T) {
	const nFrames = 18
	const seed = 11
	const window = 6
	s := testSession(t)
	frames := s.Scene.Capture(0, nFrames, rand.New(rand.NewSource(seed)))
	wantProfs, _ := referenceFrontEnd(frames, s.Scene.Radar)
	last := frames[nFrames-1]
	wantDoppler := &radar.RangeDopplerMap{}
	if err := radar.NewProcessor(radar.DefaultConfig()).Plan(last.Params).RangeDopplerInto(nil, wantDoppler, frames[nFrames-window:], 0, 1/last.Params.FrameRate); err != nil {
		t.Fatal(err)
	}

	fe, pools, plan := frontEnd(s.Scene, 1)
	profsC := &profileCopies{}
	dopC := &dopplerCopies{}
	stages := append(fe, profsC, NewDopplerPlanned(plan, window, 0, pools.Doppler), dopC)
	src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(seed))).UsePool(pools.Frames).UseWorkers(1)
	n, err := New(src, stages...).UsePools(pools).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != nFrames {
		t.Fatalf("%d frames, want %d", n, nFrames)
	}
	if len(profsC.power) != len(wantProfs) {
		t.Fatalf("%d profiles, want %d", len(profsC.power), len(wantProfs))
	}
	for i := range wantProfs {
		if !reflect.DeepEqual(profsC.power[i], wantProfs[i].Power) {
			t.Fatalf("profile %d power map differs from the reference", i)
		}
	}
	if !reflect.DeepEqual(dopC.last, wantDoppler.Power) {
		t.Fatal("last range–Doppler map differs from the reference")
	}
}

// TestDetectionsCollectorSurvivesRecycling checks the collector keeps its
// own copies: the peak stage writes every frame's detections into the
// item's recycled buffer, so a collector holding that buffer would see
// later frames overwrite earlier ones.
func TestDetectionsCollectorSurvivesRecycling(t *testing.T) {
	const nFrames = 12
	s := testSession(t)
	fe, pools, _ := frontEnd(s.Scene, 1)
	detsC := &detectionsCollector{}
	var live [][]radar.Detection // what the items held while in flight
	snoop := stageFunc(func(it *Item) {
		if it.HasDets {
			live = append(live, append([]radar.Detection(nil), it.Detections...))
		}
	})
	src := s.Scene.Stream(0, nFrames, rand.New(rand.NewSource(5))).UsePool(pools.Frames)
	if _, err := New(src, append(fe, snoop, detsC)...).UsePools(pools).Run(nil); err != nil {
		t.Fatal(err)
	}
	got := detsC.dets
	if len(got) != nFrames-1 {
		t.Fatalf("collected %d detection sets, want %d", len(got), nFrames-1)
	}
	nonEmpty := 0
	for i := range got {
		if len(got[i]) != len(live[i]) {
			t.Fatalf("frame %d: collected %d detections, item held %d", i+1, len(got[i]), len(live[i]))
		}
		for j := range got[i] {
			if got[i][j] != live[i][j] {
				t.Fatalf("frame %d detection %d overwritten after recycling: %+v, want %+v", i+1, j, got[i][j], live[i][j])
			}
		}
		if len(got[i]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d non-empty detection sets: recycling not exercised", nonEmpty)
	}
}

// stageFunc adapts a function to a Stage.
type stageFunc func(it *Item)

func (f stageFunc) Name() string                                { return "func" }
func (f stageFunc) Process(ctx context.Context, it *Item) error { f(it); return nil }
