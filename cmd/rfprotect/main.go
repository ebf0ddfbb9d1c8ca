// Command rfprotect runs an end-to-end demonstration: a home with a real
// occupant, an RF-Protect tag injecting a GAN-generated ghost, an
// eavesdropper radar tracking the room, and a legitimate sensor removing the
// disclosed ghost.
//
//	rfprotect -duration 5 -ghosts 2 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"rfprotect/internal/core"
	"rfprotect/internal/gan"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func main() {
	duration := flag.Float64("duration", 5, "capture duration in seconds")
	ghosts := flag.Int("ghosts", 1, "number of ghosts to inject")
	ganSteps := flag.Int("gansteps", 120, "cGAN training steps (ignored with -model)")
	model := flag.String("model", "", "pre-trained cGAN weights (from gantrain)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		fatal(err)
	}
	sc := sess.Scene
	params := sc.Params
	rng := rand.New(rand.NewSource(*seed))

	// RF-Protect system sharing the session's tag (deployed broadside to the
	// radar, just inside the wall).
	ganCfg := gan.DefaultConfig()
	sys := sess.NewSystem(core.Config{GAN: &ganCfg, Seed: *seed})
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		err = sys.LoadGenerator(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded cGAN weights from %s\n", *model)
	} else {
		fmt.Printf("training cGAN for %d steps...\n", *ganSteps)
		sys.TrainGenerator(nil, *ganSteps)
	}

	// A real occupant ambles through the home.
	walker := motion.NewGenerator(motion.DefaultConfig(), *seed+10)
	humanTraj := walker.Trace().Translate(geom.Point{X: 4, Y: 4})
	for i, p := range humanTraj {
		humanTraj[i] = sc.Room.Clamp(p, 0.5)
	}
	sc.Humans = []*scene.Human{scene.NewHuman(humanTraj, motion.SampleRate)}
	fmt.Printf("real occupant: %d-point trajectory around %v\n", len(humanTraj), humanTraj.Centroid())

	// Inject ghosts.
	for g := 0; g < *ghosts; g++ {
		class := 1 + g%3
		anchor := geom.Point{X: sc.Radar.Position.X - 0.6 + 1.2*rng.Float64(), Y: 2.5 + 1.5*rng.Float64()}
		rec, world, err := sys.DeployGhostCalibrated(class, anchor, sc.Radar, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ghost %d: class %d, %d control ticks, anchored at %v\n",
			g+1, class, len(rec.Entries), world.Centroid())
	}

	// Eavesdropper captures and tracks through the streaming pipeline: one
	// frame in flight end to end, so memory stays flat for any -duration,
	// and ctrl-C-style cancellation would stop the capture cleanly.
	n := int(*duration * params.FrameRate)
	fmt.Printf("capturing %d frames (%.1f s at %.0f Hz)...\n", n, *duration, params.FrameRate)
	pools := pipeline.NewPools(sc.Params)
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	trk := pipeline.NewTrack(radar.TrackerConfig{})
	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
	p := pipeline.New(sc.Stream(0, n, rng).UsePool(pools.Frames), stages...).UsePools(pools)
	if _, err := p.Run(context.Background()); err != nil {
		fatal(err)
	}
	tracks := radar.FilterHumanTracks(trk.Tracks(), params.FrameRate)

	fmt.Printf("\neavesdropper view: %d human-like tracks\n", len(tracks))
	for _, t := range tracks {
		tr := t.Smoothed()
		fmt.Printf("  track %d: %3d points, centroid %v, span %.1f m\n",
			t.ID, len(tr), tr.Centroid(), tr.RangeOfMotion())
	}

	legit := core.NewLegitSensor(sys.Tag().Config(), sc.Radar)
	humans, ghostTracks := legit.Filter(tracks, sys.Disclosures())
	fmt.Printf("\nlegitimate sensor (with disclosure): %d real track(s), %d ghost track(s) removed\n",
		len(humans), len(ghostTracks))
	for _, t := range humans {
		tr := t.Smoothed()
		err := geom.MeanPointwiseError(tr, humanTraj)
		fmt.Printf("  kept track %d: error vs real occupant %.2f m\n", t.ID, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfprotect:", err)
	os.Exit(1)
}
