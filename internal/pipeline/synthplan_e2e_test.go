package pipeline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// synthFn synthesizes returns into a zeroed frame, drawing noise from rng.
type synthFn func(dst *fmcw.Frame, returns []fmcw.Return, rng *rand.Rand)

// plannedSynth is the one synthesis kernel, the shared compiled plan.
func plannedSynth(dst *fmcw.Frame, returns []fmcw.Return, rng *rand.Rand) {
	if err := fmcw.PlanSynth(dst.Params).SynthesizeInto(nil, dst, returns, rng, 1); err != nil {
		panic(err) // a nil ctx never cancels
	}
}

// serialReference is the serial phasor recurrence the plan restructures
// (Frame.AddReturns) plus the noise for the one base draw a noisy
// synthesis takes from rng.
func serialReference(dst *fmcw.Frame, returns []fmcw.Return, rng *rand.Rand) {
	dst.AddReturns(returns)
	if rng != nil && dst.Params.NoiseStd > 0 {
		dst.AddNoise(rng.Int63())
	}
}

// captureWith synthesizes the golden scene's capture through the given
// kernel: identical returns, identical rng stream, only the synthesis
// arithmetic differs.
func captureWith(t *testing.T, synth synthFn, nFrames int) ([]*fmcw.Frame, fmcw.Array) {
	t.Helper()
	s := testSession(t)
	sc := s.Scene
	rng := rand.New(rand.NewSource(23))
	frames := make([]*fmcw.Frame, nFrames)
	for i := range frames {
		at := float64(i) / sc.Params.FrameRate
		f := fmcw.NewFrame(sc.Params, at)
		synth(f, sc.ReturnsAt(at), rng)
		frames[i] = f
	}
	return frames, sc.Radar
}

// TestPlannedSynthesisSameDetectionsAndTracks is the end-to-end acceptance
// contract for the compiled synthesis plan: a golden streaming scene
// synthesized by the planned kernel and by its serial reference
// (Frame.AddReturns plus AddNoise), run through
// the identical eavesdropper chain, must yield the same detections (to
// sub-micrometer position agreement — the inputs differ only at the ULP
// level) and structurally identical tracks.
func TestPlannedSynthesisSameDetectionsAndTracks(t *testing.T) {
	const nFrames = 30
	const posTol = 1e-6

	type result struct {
		dets   [][]radar.Detection
		tracks []*radar.Track
	}
	run := func(synth synthFn) result {
		frames, array := captureWith(t, synth, nFrames)
		cfg := radar.DefaultConfig()
		cfg.Workers = 1
		plan := radar.PlanFrontEnd(cfg, frames[0].Params)
		pools := NewPools(frames[0].Params)
		detsC := &detectionsCollector{}
		trk := NewTrackWithVelocity(radar.TrackerConfig{}, array)
		stages := FrontEndStagesPlanned(plan, array, pools)
		stages = append(stages, NewDopplerPlanned(plan, 6, 0, pools.Doppler), trk, detsC)
		if _, err := New(fromFrames(frames), stages...).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return result{dets: detsC.dets, tracks: trk.Tracks()}
	}

	ref := run(serialReference)
	planned := run(plannedSynth)

	if len(planned.dets) != len(ref.dets) {
		t.Fatalf("planned run produced %d detection frames, reference %d", len(planned.dets), len(ref.dets))
	}
	for i := range ref.dets {
		if len(planned.dets[i]) != len(ref.dets[i]) {
			t.Fatalf("frame %d: planned %d detections, reference %d", i, len(planned.dets[i]), len(ref.dets[i]))
		}
		for j := range ref.dets[i] {
			pd, ld := planned.dets[i][j], ref.dets[i][j]
			if pd.Pos.Dist(ld.Pos) > posTol {
				t.Fatalf("frame %d det %d: planned %v, reference %v — beyond %g", i, j, pd.Pos, ld.Pos, posTol)
			}
			if math.Abs(pd.Time-ld.Time) > 0 {
				t.Fatalf("frame %d det %d: time differs", i, j)
			}
		}
	}
	if len(planned.tracks) != len(ref.tracks) {
		t.Fatalf("planned run produced %d tracks, reference %d", len(planned.tracks), len(ref.tracks))
	}
	for i := range ref.tracks {
		pt, lt := planned.tracks[i], ref.tracks[i]
		if pt.ID != lt.ID || pt.Confirmed != lt.Confirmed || len(pt.Points) != len(lt.Points) {
			t.Fatalf("track %d: structure differs (id %d/%d, confirmed %v/%v, %d/%d points)",
				i, pt.ID, lt.ID, pt.Confirmed, lt.Confirmed, len(pt.Points), len(lt.Points))
		}
		for j := range lt.Points {
			if pt.Points[j].Time != lt.Points[j].Time || pt.Points[j].Pos.Dist(lt.Points[j].Pos) > posTol {
				t.Fatalf("track %d point %d: planned %v, reference %v", i, j, pt.Points[j], lt.Points[j])
			}
		}
	}
}
