package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/parallel"
	"rfprotect/internal/scene"
)

// outputHash folds every value of an experiment's result into one FNV-64a
// hash over exact float64 bits, so a pinned hash changes if any output
// changes in its last bit.
func outputHash(vals ...any) uint64 {
	h := fnv.New64a()
	var put func(v any)
	put = func(v any) {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(h, "%016x;", math.Float64bits(x))
		case int:
			fmt.Fprintf(h, "i%d;", x)
		case bool:
			fmt.Fprintf(h, "b%t;", x)
		case string:
			fmt.Fprintf(h, "s%q;", x)
		case []float64:
			fmt.Fprintf(h, "n%d;", len(x))
			for _, f := range x {
				put(f)
			}
		case geom.Trajectory:
			fmt.Fprintf(h, "n%d;", len(x))
			for _, p := range x {
				put(p.X)
				put(p.Y)
			}
		default:
			panic(fmt.Sprintf("outputHash: unsupported %T", v))
		}
	}
	for _, v := range vals {
		put(v)
	}
	return h.Sum64()
}

// TestFrontEndOutputsPinned pins one seed's exact output of every
// experiment that runs the eavesdropper front end. The hashes were
// recorded on the batch front end these experiments used before (the whole
// capture in memory, then a fresh per-trial processor over it); the
// planned streaming chain they run on now must reproduce them bit for bit.
func TestFrontEndOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every front-end experiment")
	}
	check := func(t *testing.T, name string, want, got uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s output hash %#016x, want %#016x", name, got, want)
		}
	}
	t.Run("fig9", func(t *testing.T) {
		t.Parallel()
		r, err := Fig9Ctx(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var vals []any
		for _, s := range r.Shapes {
			vals = append(vals, s.Name, s.GroundTruth, s.Detected, s.MedianError)
		}
		check(t, "fig9", 0x07fc49be6459078e, outputHash(vals...))
	})
	t.Run("fig10", func(t *testing.T) {
		t.Parallel()
		// Only the (a)/(b) profiles are pinned, to the bits they had before
		// moving onto differenceProfile; a token GAN keeps (c) cheap.
		r, err := Fig10Ctx(context.Background(), Sizes{CorpusSize: 20, GANSteps: 1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "fig10", 0xe9ca5d766367e387, outputHash(r.HumanProfile.Power, r.GhostProfile.Power, r.HumanPeak, r.GhostPeak))
	})
	t.Run("measure-ghost", func(t *testing.T) {
		t.Parallel()
		var vals []any
		ds := motion.Generate(4, 2)
		for ri, room := range []scene.Room{scene.HomeRoom(), scene.OfficeRoom()} {
			env, err := NewEnv(room, fmcw.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(parallel.SplitSeed(2, ri)))
			world := FitGhostTrajectory(ds.Traces[ri], env, room, rng)
			m, err := env.MeasureGhostCtx(context.Background(), world, motion.SampleRate, rng)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, m.Measured, m.Requested, m.Expected)
		}
		check(t, "measure-ghost", 0xd161c87842ebab06, outputHash(vals...))
	})
	t.Run("fig13", func(t *testing.T) {
		t.Parallel()
		r, err := Fig13Ctx(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "fig13", 0xc964831027c325a7, outputHash(r.EavesdropperTracks, r.HumanTracksKept, r.GhostTracksRemoved,
			r.HumanError, r.HumanTrajectory, r.GhostTrajectory))
	})
	t.Run("fig14", func(t *testing.T) {
		t.Parallel()
		r, err := Fig14Ctx(context.Background(), 6)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "fig14", 0x8ca87fbb075ccff1, outputHash(r.TrueRate, r.HumanRate, r.GhostRate, r.HumanPhase, r.GhostPhase, r.Times))
	})
	t.Run("probe", func(t *testing.T) {
		t.Parallel()
		r, err := ProbeCtx(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "probe", 0x1100f1951ad0f960, outputHash(r.SpooferGhostSeen, r.TagGhostSeen, r.SpooferDetected, r.TagDetected,
			r.SpooferPeakPower, r.TagPeakPower, r.NoiseFloor))
	})
	t.Run("ablation", func(t *testing.T) {
		t.Parallel()
		r, err := AblationCtx(context.Background(), 11)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "ablation", 0x57951699c1f84ce4, outputHash(r.LocErrWithSpeckle, r.LocErrWithoutSpeckle,
			r.DetectionsFullHarmonics, r.DetectionsSSB, r.MatchedPowerRatio, r.RawPowerRatio))
	})
	t.Run("multiradar", func(t *testing.T) {
		t.Parallel()
		r, err := MultiRadarCtx(context.Background(), 8)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "multiradar", 0x409ca5c1f7b6b27b, outputHash(r.HumanDisagreement, r.GhostDisagreement,
			r.GhostFlagged, r.HumanFlagged, r.Gate))
	})
	t.Run("armsrace", func(t *testing.T) {
		t.Parallel()
		r, err := ArmsRaceCtx(context.Background(), Sizes{TrajPerRoom: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "armsrace", 0x72f40f94f222402b, outputHash(
			r.HarmonicAUCNaive, r.HarmonicAUCHardened, r.KinematicAUCNaive, r.KinematicAUCHardened,
			r.CombinedAUCNaive, r.CombinedAUCHardened, r.NaiveFlagged, r.HardenedFlagged, r.HumansFlagged,
			r.GhostTracks, r.HumanTracks, r.HarmonicMedianNaive, r.HarmonicMedianHardened,
			r.HarmonicMedianHuman, r.ReplayJitterAUC, r.ReplayLag, r.TagLag))
	})
}
