package detect

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func TestThresholdsDefaults(t *testing.T) {
	th := Thresholds{}.withDefaults()
	if th != DefaultThresholds() {
		t.Fatalf("zero thresholds = %+v, want defaults %+v", th, DefaultThresholds())
	}
	custom := Thresholds{Harmonic: 0.5, Kinematic: 2}.withDefaults()
	if custom.Harmonic != 0.5 || custom.Kinematic != 2 {
		t.Fatalf("custom thresholds clobbered: %+v", custom)
	}
}

func TestTrackScoreFlagged(t *testing.T) {
	if (TrackScore{Suspicion: 0.99}).Flagged() {
		t.Error("Suspicion 0.99 should not flag")
	}
	if !(TrackScore{Suspicion: 1.0}).Flagged() {
		t.Error("Suspicion 1.0 should flag")
	}
}

// feedTracker drives a tracker along a straight walk and returns it with
// its dominant track.
func feedTracker(n int) (*radar.Tracker, *radar.Track) {
	tr := radar.NewTracker(radar.TrackerConfig{KeepVelocityHistory: true, MinTrackPoints: 5})
	for i := 0; i < n; i++ {
		t := float64(i) * 0.05
		pos := geom.Point{X: 1 + 0.05*t, Y: 3 - 0.8*t}
		tr.Observe(t, []radar.Detection{{
			Range: math.Hypot(pos.X, pos.Y), Pos: pos, Power: 100, Time: t,
		}})
	}
	ts := tr.Tracks()
	if len(ts) == 0 {
		return tr, nil
	}
	return tr, ts[0]
}

func TestTrackScorerObserveAndScore(t *testing.T) {
	tr, trk := feedTracker(40)
	if trk == nil {
		t.Fatal("tracker produced no track")
	}
	sc := NewTrackScorer(Config{}, testArray())
	m, _ := synthFixture()
	// Plant the comb at the track's own range row instead of the fixture's.
	for i := range m.Power {
		m.Power[i] = synthFloor
	}
	last := trk.Points[len(trk.Points)-1].Pos
	r1 := int(math.Round(m.BinOfRange(math.Hypot(last.X, last.Y))))
	m.Power[r1*synthCols+fundCol] = 1.0
	m.Power[45*synthCols+harm2Col] = 0.2
	for i := 0; i < 8; i++ {
		sc.Observe(m, tr)
	}
	got := sc.Score(trk)
	if got.TrackID != trk.ID {
		t.Errorf("TrackID = %d, want %d", got.TrackID, trk.ID)
	}
	if got.Frames != 8 {
		t.Errorf("Frames = %d, want 8", got.Frames)
	}
	if got.Harmonic < 0.15 {
		t.Errorf("Harmonic = %v, want ~0.2 (planted comb)", got.Harmonic)
	}
	if !got.Flagged() {
		t.Errorf("planted comb should flag; score %+v", got)
	}
	if math.IsNaN(got.Suspicion) || math.IsInf(got.Suspicion, 0) {
		t.Errorf("non-finite Suspicion %v", got.Suspicion)
	}

	// Scores preserves input order.
	all := sc.Scores([]*radar.Track{trk, trk})
	if len(all) != 2 || all[0].TrackID != trk.ID || all[1].TrackID != trk.ID {
		t.Errorf("Scores order broken: %+v", all)
	}
}

func TestTrackScorerNoEvidence(t *testing.T) {
	tr, trk := feedTracker(40)
	if trk == nil {
		t.Fatal("tracker produced no track")
	}
	sc := NewTrackScorer(Config{}, testArray())
	sc.Observe(nil, tr) // nil map ignored
	got := sc.Score(trk)
	if got.Frames != 0 || got.Harmonic != 0 {
		t.Errorf("nil-map evidence leaked: %+v", got)
	}
	if got.Flagged() {
		t.Errorf("smooth walk with no harmonic evidence flagged: %+v", got)
	}
}

// scoreStage mirrors the armsrace/service wiring for the pipeline test.
type scoreStage struct {
	sc  *TrackScorer
	trk *pipeline.TrackStage
}

func (s *scoreStage) Name() string { return "spoof-score" }

func (s *scoreStage) Process(ctx context.Context, it *pipeline.Item) error {
	if it.RangeDoppler != nil {
		s.sc.Observe(it.RangeDoppler, s.trk.Tracker())
	}
	return nil
}

// scoreHumanCapture runs a fixed human capture through the streaming stack
// with the given worker count and returns the dominant track's score.
func scoreHumanCapture(t *testing.T, workers int) TrackScore {
	t.Helper()
	sc := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams())
	sc.Multipath = false
	traj := geom.Trajectory{
		{X: sc.Radar.Position.X + 0.3, Y: 3.0},
		{X: sc.Radar.Position.X + 0.4, Y: 3.3},
		{X: sc.Radar.Position.X + 0.5, Y: 3.6},
		{X: sc.Radar.Position.X + 0.6, Y: 3.9},
	}
	sc.Humans = append(sc.Humans, scene.NewHuman(traj, 1))
	cfg := radar.DefaultConfig()
	cfg.Workers = workers
	plan := radar.PlanFrontEnd(cfg, sc.Params)
	pools := pipeline.NewPools(sc.Params)
	trkStage := pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	scorer := NewTrackScorer(Config{}, sc.Radar)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools)
	stages = append(stages, pipeline.NewDopplerPlanned(plan, 8, 0, pools.Doppler), trkStage, &scoreStage{sc: scorer, trk: trkStage})
	src := sc.Stream(0, 50, rand.New(rand.NewSource(11))).UsePool(pools.Frames)
	if _, err := pipeline.New(src, stages...).UsePools(pools).Run(nil); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var best *radar.Track
	for _, trk := range trkStage.Tracks() {
		if best == nil || len(trk.Points) > len(best.Points) {
			best = trk
		}
	}
	if best == nil {
		t.Fatal("no track from human capture")
	}
	return scorer.Score(best)
}

// Property: spoof scores are bit-identical for any pipeline worker count —
// the repo-wide determinism invariant extends to the adversary suite.
func TestTrackScorerWorkerCountBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full capture in -short mode")
	}
	base := scoreHumanCapture(t, 1)
	for _, w := range []int{2, 0} {
		if got := scoreHumanCapture(t, w); got != base {
			t.Fatalf("Workers=%d score %+v differs from Workers=1 %+v", w, got, base)
		}
	}
	if base.Flagged() {
		t.Errorf("walking human flagged: %+v", base)
	}
}
