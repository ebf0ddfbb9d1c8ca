// Home privacy: the motivating scenario of §1 — an eavesdropper mines a
// household's occupancy distribution through the wall; RF-Protect phantoms
// destroy the inference. Combines the full radar chain with the §7
// information-theoretic analysis.
//
//	go run ./examples/homeprivacy
package main

import (
	"context"
	"fmt"
	"math/rand"

	"rfprotect/internal/core"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/privacy"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

func main() {
	params := fmcw.DefaultParams()
	rng := rand.New(rand.NewSource(7))

	// Simulate 12 five-second "snapshots" of a home through a day. In each,
	// 0-2 real occupants move; the tag spawns phantoms with probability 0.5.
	const snapshots = 12
	const maxGhosts = 2
	walker := motion.NewGenerator(motion.DefaultConfig(), 99)

	fmt.Println("snapshot  real  ghosts  eavesdropper-count")
	totalReal, totalSeen := 0, 0
	for s := 0; s < snapshots; s++ {
		sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom(), NoMultipath: true})
		if err != nil {
			panic(err)
		}
		sc, ctl := sess.Scene, sess.Ctl

		nReal := rng.Intn(3)
		for h := 0; h < nReal; h++ {
			traj := walker.Trace().Translate(geom.Point{
				X: 2.5 + rng.Float64()*(sc.Room.Width-5),
				Y: 3 + rng.Float64()*3,
			})
			for i, p := range traj {
				traj[i] = sc.Room.Clamp(p, 0.5)
			}
			sc.Humans = append(sc.Humans, scene.NewHuman(traj, motion.SampleRate))
		}
		nGhost := 0
		for g := 0; g < maxGhosts; g++ {
			if rng.Float64() < 0.5 {
				continue
			}
			nGhost++
			traj := walker.Trace().Translate(geom.Point{
				X: sc.Radar.Position.X - 0.5 + rng.Float64(),
				Y: 2.5 + rng.Float64()*1.5,
			})
			for i, p := range traj {
				traj[i] = sc.Room.Clamp(p, 0.5)
			}
			if _, err := ctl.ProgramForRadar(traj, sc.Radar, motion.SampleRate, 0); err != nil {
				panic(err)
			}
		}

		pools := pipeline.NewPools(sc.Params)
		plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
		trk := pipeline.NewTrack(radar.TrackerConfig{})
		stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
		src := sc.Stream(0, int(5*params.FrameRate), rng).UsePool(pools.Frames)
		if _, err := pipeline.New(src, stages...).UsePools(pools).Run(context.Background()); err != nil {
			panic(err)
		}
		tracks := radar.FilterHumanTracks(trk.Tracks(), params.FrameRate)
		fmt.Printf("%8d  %4d  %6d  %18d\n", s, nReal, nGhost, len(tracks))
		totalReal += nReal
		totalSeen += len(tracks)
	}
	fmt.Printf("\ntotals: %d real occupant-sessions, eavesdropper counted %d\n", totalReal, totalSeen)

	// The distribution-level view (§7): how much information about the true
	// occupancy distribution leaks for different phantom strategies?
	fmt.Println("\nmutual information I(X;Z) for N=4 occupants, p=0.2:")
	for _, m := range []int{2, 4, 8} {
		model := privacy.Model{N: 4, P: 0.2, M: m, Q: 0.5}
		fmt.Printf("  M=%d phantoms at q=0.5: %.4f bits (H(X)=%.4f)\n",
			m, model.MutualInformation(), model.EntropyX())
	}
	fmt.Printf("breathing-trace guess success with 2 real, 4 fake: %.2f\n",
		privacy.BreathingGuessProbability(2, 4))
}
