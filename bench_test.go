// Package main's bench suite regenerates every table and figure of the
// paper's evaluation as testing.B benchmarks: one bench per experiment, each
// reporting the headline numbers as custom metrics alongside time/op.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// (Each iteration runs a full experiment; -benchtime=1x gives one clean
// pass. The default benchtime also works but repeats experiments.)
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"rfprotect/internal/core"
	"rfprotect/internal/dsp"
	"rfprotect/internal/experiments"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// benchSizes keeps bench iterations tractable while exercising the full
// code path of every experiment; cmd/experiments -run all uses Full().
func benchSizes() experiments.Sizes {
	sz := experiments.Quick()
	sz.TrajPerRoom = 6
	return sz
}

// BenchmarkFig7MutualInformation regenerates the privacy curves of Fig. 7.
func BenchmarkFig7MutualInformation(b *testing.B) {
	var minMI float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7()
		_, minMI = r.MinMI(len(r.Ms) - 1)
	}
	b.ReportMetric(minMI, "min-I(X;Z)-bits")
}

// BenchmarkFig9RadarLocalization regenerates the localization
// microbenchmark of Fig. 9.
func BenchmarkFig9RadarLocalization(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9Ctx(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		med = r.Shapes[0].MedianError
	}
	b.ReportMetric(med*100, "median-err-cm")
}

// BenchmarkFig10RangeAngleProfiles regenerates the human-vs-ghost profile
// comparison of Fig. 10a/b and the single-trajectory spoof of Fig. 10c.
func BenchmarkFig10RangeAngleProfiles(b *testing.B) {
	sz := benchSizes()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10Ctx(context.Background(), sz, 2)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.GhostPeak / r.HumanPeak
	}
	b.ReportMetric(ratio, "ghost/human-power")
}

// BenchmarkFig11Spoofing regenerates the 2-D spoofing accuracy CDFs of
// Fig. 11a/b/c (home and office).
func BenchmarkFig11Spoofing(b *testing.B) {
	sz := benchSizes()
	var home, office float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11Ctx(context.Background(), sz, 3)
		if err != nil {
			b.Fatal(err)
		}
		home = r.Envs[0].MedianLocation
		office = r.Envs[1].MedianLocation
	}
	b.ReportMetric(home*100, "home-median-loc-cm")
	b.ReportMetric(office*100, "office-median-loc-cm")
}

// BenchmarkFig12FID regenerates the normalized-FID comparison of Fig. 12
// (right).
func BenchmarkFig12FID(b *testing.B) {
	sz := benchSizes()
	var gan float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(sz, 3)
		gan = r.NormalizedFID["GAN"]
	}
	b.ReportMetric(gan, "gan-normalized-fid")
}

// BenchmarkFig12GANSamples measures trajectory generation throughput
// (Fig. 12 left's sample grids).
func BenchmarkFig12GANSamples(b *testing.B) {
	sz := benchSizes()
	tr := experiments.TrainedGAN(sz, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Sample(10)
	}
}

// BenchmarkTable1UserStudy regenerates the simulated user study of Table 1.
func BenchmarkTable1UserStudy(b *testing.B) {
	sz := benchSizes()
	var p float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(sz, 4)
		p = r.P
	}
	b.ReportMetric(p, "chi2-p-value")
}

// BenchmarkFig13LegitimateSensing regenerates the legitimate-sensing
// demonstration of Fig. 13.
func BenchmarkFig13LegitimateSensing(b *testing.B) {
	var kept float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13Ctx(context.Background(), 5)
		if err != nil {
			b.Fatal(err)
		}
		kept = float64(r.HumanTracksKept)
	}
	b.ReportMetric(kept, "human-tracks-kept")
}

// BenchmarkFig14BreathingSpoof regenerates the breathing-rate spoofing
// comparison of Fig. 14.
func BenchmarkFig14BreathingSpoof(b *testing.B) {
	var ghostRate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14Ctx(context.Background(), 6)
		if err != nil {
			b.Fatal(err)
		}
		ghostRate = r.GhostRate
	}
	b.ReportMetric(ghostRate*60, "ghost-breaths/min")
}

// BenchmarkRunAll exercises the full dispatcher end to end (the cmd path).
func BenchmarkRunAll(b *testing.B) {
	if testing.Short() {
		b.Skip("full sweep")
	}
	sz := benchSizes()
	sz.TrajPerRoom = 2
	for i := 0; i < b.N; i++ {
		if err := experiments.RunCtx(context.Background(), "all", sz, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineReturns builds the mixed 64-return workload cmd/bench uses, so
// `go test -bench` and the JSON snapshot measure the same thing.
func pipelineReturns() []fmcw.Return {
	rng := rand.New(rand.NewSource(1))
	out := make([]fmcw.Return, 64)
	for i := range out {
		out[i] = fmcw.Return{
			Delay:     2 * (1 + 10*rng.Float64()) / fmcw.C,
			Amplitude: 0.05 + rng.Float64(),
			AoA:       rng.Float64() * 3.1,
			FreqShift: float64(i%3) * 20e3,
			Phase:     rng.Float64(),
		}
	}
	return out
}

// BenchmarkPipelineFrameSynthesis measures beat-signal synthesis — the
// inner loop of every experiment — sequentially and with the full worker
// pool. Outputs are bit-identical; only cost differs.
func BenchmarkPipelineFrameSynthesis(b *testing.B) {
	params := fmcw.DefaultParams()
	returns := pipelineReturns()
	rng := rand.New(rand.NewSource(1))
	plan := fmcw.PlanSynth(params)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := plan.SynthesizeInto(nil, fmcw.NewFrame(params, 0), returns, rng, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineRangeFFT measures the cached-plan 512-point range FFT.
func BenchmarkPipelineRangeFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row := make([]complex128, 512)
	for i := range row {
		row[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.Run("single-512", func(b *testing.B) {
		buf := make([]complex128, len(row))
		for i := 0; i < b.N; i++ {
			copy(buf, row)
			dsp.FFTInPlace(buf)
		}
	})
}

// BenchmarkMagnitude measures the magnitude kernel both ways — the
// historical cmplx.Abs formulation and the math.Hypot one dsp.Magnitude
// now uses — over the radar's 512-bin spectrum shape. Same destination
// buffer, zero allocations either way; the delta is pure per-element cost.
func BenchmarkMagnitude(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]float64, len(x))
	b.Run("hypot-512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dsp.MagnitudeTo(dst, x)
		}
	})
	b.Run("cmplx-abs-512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, v := range x {
				dst[k] = cmplx.Abs(v)
			}
		}
	})
}

// streamingSession builds the capture-and-track workload cmd/bench's
// streaming section uses: a home with a programmed ghost.
func streamingSession(b *testing.B) *core.Session {
	b.Helper()
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		b.Fatal(err)
	}
	cx := sess.Scene.Radar.Position.X
	ghost := make(geom.Trajectory, 40)
	for i := range ghost {
		f := float64(i) / float64(len(ghost)-1)
		ghost[i] = geom.Point{X: cx + 0.3 + f, Y: 2.7 + 1.5*f}
	}
	if _, err := sess.Ctl.ProgramForRadar(ghost, sess.Scene.Radar, sess.Scene.Params.FrameRate, 0); err != nil {
		b.Fatal(err)
	}
	return sess
}

// capturePipeline assembles the eavesdropper's capture-and-track chain over
// nFrames of sc: the planned front end with every buffer recycled, then a
// tracker.
func capturePipeline(sc *scene.Scene, nFrames int) *pipeline.Pipeline {
	pools := pipeline.NewPools(sc.Params)
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), pipeline.NewTrack(radar.TrackerConfig{}))
	src := sc.Stream(0, nFrames, rand.New(rand.NewSource(1))).UsePool(pools.Frames)
	return pipeline.New(src, stages...).UsePools(pools)
}

// BenchmarkStreamingCaptureTrack measures the streaming pipeline end to end
// — synthesize, background-subtract, profile, detect, track, one frame in
// flight, every buffer recycled — over a 32-frame capture.
func BenchmarkStreamingCaptureTrack(b *testing.B) {
	const nFrames = 32
	sc := streamingSession(b).Scene
	b.Run("streaming-pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := capturePipeline(sc, nFrames).Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDopplerStage measures the steady-state per-frame cost of the
// sliding-window range–Doppler recompute: the 8-frame window is pre-filled,
// so every iteration is one ring-buffer push plus a full slow-time FFT over
// all range bins.
func BenchmarkDopplerStage(b *testing.B) {
	sess := streamingSession(b)
	sc := sess.Scene
	rng := rand.New(rand.NewSource(1))
	frame, err := sc.FrameAt(nil, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	pool := radar.NewDopplerPool()
	dop := pipeline.NewDopplerPlanned(radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params), 8, 0, pool)
	ctx := context.Background()
	step := func(i int) {
		it := &pipeline.Item{Index: i, Frame: frame}
		if err := dop.Process(ctx, it); err != nil {
			b.Fatal(err)
		}
		pool.Put(it.RangeDoppler)
	}
	for i := 0; i < 8; i++ {
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(8 + i)
	}
}

// BenchmarkStreamingCancellation measures how fast a canceled unbounded
// capture unwinds — the cost of the pipeline's cooperative-cancellation
// checks, not of the frames themselves.
func BenchmarkStreamingCancellation(b *testing.B) {
	sess := streamingSession(b)
	sc := sess.Scene
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := capturePipeline(sc, -1).Run(ctx); !errors.Is(err, context.Canceled) {
			b.Fatalf("Run = %v, want context.Canceled", err)
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablations documented in
// EXPERIMENTS.md (speckle, square-wave harmonics, amplitude control).
func BenchmarkAblations(b *testing.B) {
	var withSpeckle float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCtx(context.Background(), 11)
		if err != nil {
			b.Fatal(err)
		}
		withSpeckle = r.LocErrWithSpeckle
	}
	b.ReportMetric(withSpeckle*100, "office-loc-err-cm")
}
