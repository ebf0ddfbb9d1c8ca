package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// Fig14Result is the breathing-rate spoofing experiment of §11.4: phase
// traces extracted by the radar for a real breathing human and for the
// tag's phase-shifter ghost, with the estimated rates.
type Fig14Result struct {
	TrueRate   float64 // Hz programmed into both
	HumanRate  float64 // Hz estimated from the human's phase trace
	GhostRate  float64 // Hz estimated from the ghost's phase trace
	HumanPhase []float64
	GhostPhase []float64
	Times      []float64
}

// Fig14Ctx places a static breathing human and a breathing ghost in the home
// environment and extracts both phase signatures, with cooperative
// cancellation of the 25 s capture; a nil ctx never cancels.
func Fig14Ctx(ctx context.Context, seed int64) (Fig14Result, error) {
	const rate = 0.25
	const amplitude = 0.005
	res := Fig14Result{TrueRate: rate}
	params := fmcw.DefaultParams()
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
	if err != nil {
		return res, err
	}
	sc, ctl := sess.Scene, sess.Ctl
	tagCfg := sess.Tag.Config()

	// Real human, static, breathing.
	humanPos := geom.Point{X: sc.Radar.Position.X - 3, Y: 4}
	h := scene.NewHuman(geom.Trajectory{humanPos}, 1)
	h.Breathing = scene.Breathing{Rate: rate, Amplitude: amplitude}
	sc.Humans = []*scene.Human{h}

	// Ghost via phase shifter.
	const ghostExtra = 2.5
	const ghostAntenna = 4
	duration := 25.0
	if _, err := ctl.ProgramBreathing(ghostAntenna, ghostExtra, rate, amplitude, duration, 0); err != nil {
		return res, err
	}

	// One stream feeds both vital-sign monitors, frame by frame.
	humanDist := sc.Radar.DistanceOf(humanPos)
	ghostDist := sc.Radar.DistanceOf(tagCfg.AntennaPosition(ghostAntenna)) + ghostExtra
	humanStage := pipeline.NewBreathingPhase(radar.BreathingExtractor{}, humanDist)
	ghostStage := pipeline.NewBreathingPhase(radar.BreathingExtractor{}, ghostDist)
	pools := pipeline.NewPools(sc.Params)
	src := sc.Stream(0, int(duration*params.FrameRate), rand.New(rand.NewSource(seed))).UsePool(pools.Frames)
	if _, err := pipeline.New(src, humanStage, ghostStage).UsePools(pools).Run(ctx); err != nil {
		return res, err
	}
	times, humanPhase := humanStage.Series()
	_, ghostPhase := ghostStage.Series()

	res.Times = times
	res.HumanPhase = humanPhase
	res.GhostPhase = ghostPhase
	res.HumanRate = radar.EstimateRate(humanPhase, params.FrameRate)
	res.GhostRate = radar.EstimateRate(ghostPhase, params.FrameRate)
	return res, nil
}

// Print renders the estimated rates.
func (r Fig14Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 14: breathing-rate spoofing")
	fmt.Fprintf(w, "  programmed rate      %.3f Hz (%.1f breaths/min)\n", r.TrueRate, r.TrueRate*60)
	fmt.Fprintf(w, "  human rate at radar  %.3f Hz\n", r.HumanRate)
	fmt.Fprintf(w, "  ghost rate at radar  %.3f Hz\n", r.GhostRate)
}
