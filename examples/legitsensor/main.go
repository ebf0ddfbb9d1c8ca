// Legitimate sensing (Fig. 13): RF-Protect defeats eavesdroppers without
// breaking the user's own authorized sensor, because the tag discloses its
// injected trajectories.
//
//	go run ./examples/legitsensor
package main

import (
	"context"
	"fmt"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

func main() {
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
	if err != nil {
		panic(err)
	}
	sc, ctl := sess.Scene, sess.Ctl
	params := sc.Params
	tagCfg := sess.Tag.Config()

	// One real person walking, one ghost injected.
	n := 100
	cx := sc.Radar.Position.X
	human := make(geom.Trajectory, n)
	ghost := make(geom.Trajectory, n)
	for i := range human {
		f := float64(i) / float64(n-1)
		human[i] = geom.Point{X: cx - 3 + 2*f, Y: 5 - f}
		ghost[i] = geom.Point{X: cx + 0.3 + f, Y: 2.7 + 2*f}
	}
	sc.Humans = []*scene.Human{scene.NewHuman(human, params.FrameRate)}
	rec, err := ctl.ProgramForRadar(ghost, sc.Radar, params.FrameRate, 0)
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(3))
	pools := pipeline.NewPools(sc.Params)
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	trk := pipeline.NewTrack(radar.TrackerConfig{})
	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
	if _, err := pipeline.New(sc.Stream(0, n, rng).UsePool(pools.Frames), stages...).UsePools(pools).Run(context.Background()); err != nil {
		panic(err)
	}
	tracks := trk.Tracks()

	fmt.Printf("eavesdropper: %d tracks, no way to tell real from fake\n", len(tracks))
	for _, t := range tracks {
		tr := t.Smoothed()
		fmt.Printf("  track %d near %v (err vs human %.2f m, vs ghost %.2f m)\n",
			t.ID, tr.Centroid(),
			geom.MeanPointwiseError(tr, human), geom.MeanPointwiseError(tr, ghost))
	}

	legit := core.NewLegitSensor(tagCfg, sc.Radar)
	humans, ghosts := legit.Filter(tracks, []reflector.GhostRecord{rec})
	fmt.Printf("\nlegitimate sensor with disclosure: kept %d, removed %d\n", len(humans), len(ghosts))
	for _, t := range humans {
		fmt.Printf("  kept track %d: error vs real human %.2f m\n",
			t.ID, geom.MeanPointwiseError(t.Smoothed(), human))
	}
}
