package pipeline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// synthFn is the signature shared by fmcw.SynthesizeInto (planned) and
// fmcw.SynthesizeLegacyInto (the retained serial-recurrence reference).
type synthFn func(ctx context.Context, dst *fmcw.Frame, returns []fmcw.Return, rng *rand.Rand, workers int) error

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
		if err := synth(nil, f, sc.ReturnsAt(at), rng, 1); err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames, sc.Radar
}

// TestPlannedSynthesisSameDetectionsAndTracks is the end-to-end acceptance
// contract for the compiled synthesis plan: a golden streaming scene
// synthesized by the planned kernel and by the legacy kernel, run through
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
		detsC := NewCollectDetections()
		trk := NewTrackWithVelocity(radar.TrackerConfig{}, array)
		stages := FrontEndStagesPlanned(plan, array, pools)
		stages = append(stages, NewDopplerPlanned(plan, 6, 0, pools.Doppler), trk, detsC)
		if _, err := New(FromFrames(frames), stages...).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return result{dets: detsC.Detections(), tracks: trk.Tracks()}
	}

	legacy := run(fmcw.SynthesizeLegacyInto)
	planned := run(fmcw.SynthesizeInto)

	if len(planned.dets) != len(legacy.dets) {
		t.Fatalf("planned run produced %d detection frames, legacy %d", len(planned.dets), len(legacy.dets))
	}
	for i := range legacy.dets {
		if len(planned.dets[i]) != len(legacy.dets[i]) {
			t.Fatalf("frame %d: planned %d detections, legacy %d", i, len(planned.dets[i]), len(legacy.dets[i]))
		}
		for j := range legacy.dets[i] {
			pd, ld := planned.dets[i][j], legacy.dets[i][j]
			if pd.Pos.Dist(ld.Pos) > posTol {
				t.Fatalf("frame %d det %d: planned %v, legacy %v — beyond %g", i, j, pd.Pos, ld.Pos, posTol)
			}
			if math.Abs(pd.Time-ld.Time) > 0 {
				t.Fatalf("frame %d det %d: time differs", i, j)
			}
		}
	}
	if len(planned.tracks) != len(legacy.tracks) {
		t.Fatalf("planned run produced %d tracks, legacy %d", len(planned.tracks), len(legacy.tracks))
	}
	for i := range legacy.tracks {
		pt, lt := planned.tracks[i], legacy.tracks[i]
		if pt.ID != lt.ID || pt.Confirmed != lt.Confirmed || len(pt.Points) != len(lt.Points) {
			t.Fatalf("track %d: structure differs (id %d/%d, confirmed %v/%v, %d/%d points)",
				i, pt.ID, lt.ID, pt.Confirmed, lt.Confirmed, len(pt.Points), len(lt.Points))
		}
		for j := range lt.Points {
			if pt.Points[j].Time != lt.Points[j].Time || pt.Points[j].Pos.Dist(lt.Points[j].Pos) > posTol {
				t.Fatalf("track %d point %d: planned %v, legacy %v", i, j, pt.Points[j], lt.Points[j])
			}
		}
	}
}
