package experiments

import (
	"context"
	"math/rand"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/metrics"
	"rfprotect/internal/motion"
	"rfprotect/internal/scene"
)

// TestFig11HomeBeatsOffice verifies the paper's environment ordering
// (§11.1: office errors exceed home errors because of cabinet multipath)
// with a paired design over corpus trajectories — no GAN training needed,
// so the comparison isolates the radar chain.
func TestFig11HomeBeatsOffice(t *testing.T) {
	if testing.Short() {
		t.Skip("paired environment sweep is slow")
	}
	params := fmcw.DefaultParams()
	ds := motion.Generate(60, 9)
	medians := map[string][2]float64{} // room -> {distance, location}
	for _, room := range []scene.Room{scene.HomeRoom(), scene.OfficeRoom()} {
		rng := rand.New(rand.NewSource(10))
		var errs metrics.SpoofErrors
		for i := 0; i < 6; i++ {
			env, err := NewEnv(room, params)
			if err != nil {
				t.Fatal(err)
			}
			world := FitGhostTrajectory(ds.Traces[i*7], env, room, rng)
			m, err := env.MeasureGhostCtx(context.Background(), world, motion.SampleRate, rng)
			if err != nil {
				t.Fatal(err)
			}
			errs.Merge(metrics.EvaluateSpoof(m.Measured, m.Requested, env.Scene.Radar))
		}
		d, _, l := errs.Medians()
		medians[room.Name] = [2]float64{d, l}
	}
	home, office := medians["home"], medians["office"]
	if home[1] >= office[1] {
		t.Fatalf("home location error %.1f cm not below office %.1f cm", home[1]*100, office[1]*100)
	}
	// Absolute bands: within ~2 range bins for distance, ~0.35 m location.
	for room, m := range medians {
		if m[0] > 2*params.RangeResolution() {
			t.Fatalf("%s median distance error %.1f cm", room, m[0]*100)
		}
		if m[1] > 0.35 {
			t.Fatalf("%s median location error %.1f cm", room, m[1]*100)
		}
	}
}
