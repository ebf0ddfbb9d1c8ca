package main

import (
	"context"
	"math/rand"
	"runtime/debug"
	"time"

	"rfprotect/internal/dsp"
	"rfprotect/internal/experiments"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// rangeResolution is the radar's range resolution c/2B for the default
// 1 GHz sweep: fig9's median localization errors must stay below it.
const rangeResolution = 0.15

// fig9Seed is the seed of the i-th fig9 call of a run.
func fig9Seed(seed int64, i int) int64 { return parallel.SplitSeed(seed, i) }

// checkFig9 reports a problem unless both shapes localize within the range
// resolution.
func checkFig9(r *report, res experiments.Fig9Result, seed int64) {
	if len(res.Shapes) != 2 {
		r.problem("fig9 seed %d: %d shapes, want 2", seed, len(res.Shapes))
		return
	}
	for _, s := range res.Shapes {
		if !(s.MedianError < rangeResolution) {
			r.problem("fig9 seed %d: %s median error %.3f m is not below the %.2f m range resolution",
				seed, s.Name, s.MedianError, rangeResolution)
		}
	}
}

// probeFig9 is fig9's cold set-up: the first call in a fresh process.
func probeFig9(seed int64) error {
	_, err := experiments.Fig9Ctx(context.Background(), fig9Seed(seed, 0))
	return err
}

// fig9Replay runs fig9's trials again on the streaming chain, timed layer by
// layer: the same office scenes, shapes and noise seeds, captured by
// scene.FrameStream and processed by the planned front end. It returns
// each shape's median error, which must equal Fig9Ctx's, the wall time and
// the number of detections.
func fig9Replay(res experiments.Fig9Result, seed int64, pl *radar.FrontEndPlan, rec *recorder) ([]float64, time.Duration, int, error) {
	params := fmcw.DefaultParams()
	var out []float64
	var total time.Duration
	dets := 0
	for i, sh := range res.Shapes {
		sc := scene.NewScene(scene.OfficeRoom(), params)
		human := scene.NewHuman(sh.GroundTruth, params.FrameRate)
		sc.Humans = []*scene.Human{human}
		pools := pipeline.NewPools(params)
		src := sc.Stream(0, len(sh.GroundTruth), rand.New(rand.NewSource(parallel.SplitSeed(seed, i)))).UsePool(pools.Frames)
		ev := &fig9Errors{human: human}
		stages := append(pipeline.FrontEndStagesPlanned(pl, sc.Radar, pools), ev)
		_, wall, err := runChain(src, stages, pools, rec)
		if err != nil {
			return nil, 0, 0, err
		}
		total += wall
		dets += ev.dets
		out = append(out, dsp.Median(ev.errs))
	}
	return out, total, dets, nil
}

// fig9Errors scores each frame's detections against the subject's true
// position exactly as Fig9Ctx does: the nearest detection within 1 m.
type fig9Errors struct {
	human *scene.Human
	errs  []float64
	dets  int
}

func (s *fig9Errors) Name() string { return "fig9-errors" }

func (s *fig9Errors) Process(_ context.Context, it *pipeline.Item) error {
	if !it.HasDets {
		return nil
	}
	s.dets += len(it.Detections)
	truth := s.human.PositionAt(it.Frame.Time)
	best := 1.0
	found := false
	for _, d := range it.Detections {
		if e := d.Pos.Dist(truth); e < best {
			best, found = e, true
		}
	}
	if found {
		s.errs = append(s.errs, best)
	}
	return nil
}

// runFig9 calls experiments.Fig9Ctx back to back, one caller, a new seed
// per call, until the time is up. A traced run follows each call with two
// replays of its trials on the streaming chain, one untraced and one
// traced, for the layer breakdown and the tracing overhead.
func runFig9(cfg config) (*report, error) {
	r := newReport()
	if !cfg.trace {
		// Fig9 runs as a one-shot command, and its peak memory in a long
		// run swung by a third with GC timing: the peak of a fresh process
		// running one call is the steadier figure.
		hwm, err := probeSetup(r, "fig9", cfg.seed)
		if err != nil {
			return nil, err
		}
		r.set("peak_mem_mb", hwm, "MB")
	}
	var rec *recorder
	var pl *radar.FrontEndPlan
	if cfg.trace {
		rec = newRecorder()
		pl = radar.CompileFrontEndPlan(radar.DefaultConfig(), fmcw.DefaultParams())
	}
	var lat, plainWall, tracedWall []float64
	var calls [][2]time.Duration // each call's start and end since the loop began
	var mem memSnap
	dets := 0
	debug.FreeOSMemory() // collect set-up garbage before the clock starts
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := fig9Seed(cfg.seed, i)
		r.attempted++
		before := readMem()
		start := time.Now()
		res, err := experiments.Fig9Ctx(context.Background(), seed)
		took := time.Since(start)
		after := readMem()
		if err != nil {
			r.failed++
			r.problem("fig9 seed %d: %v", seed, err)
			continue
		}
		calls = append(calls, [2]time.Duration{start.Sub(begin), start.Sub(begin) + took})
		lat = append(lat, float64(took)/1e6)
		mem.add(before, after)
		checkFig9(r, res, seed)
		if !cfg.trace {
			continue
		}
		plain, pw, _, err := fig9Replay(res, seed, pl, nil)
		if err != nil {
			return nil, err
		}
		traced, tw, n, err := fig9Replay(res, seed, pl, rec)
		if err != nil {
			return nil, err
		}
		dets += n
		plainWall = append(plainWall, pw.Seconds())
		tracedWall = append(tracedWall, tw.Seconds())
		for k, s := range res.Shapes {
			if plain[k] != s.MedianError || traced[k] != s.MedianError {
				r.problem("fig9 seed %d: %s replay median error %v (traced %v) differs from Fig9Ctx's %v",
					seed, s.Name, plain[k], traced[k], s.MedianError)
			}
		}
	}
	logf("fig9: %d calls in %.2f s, median %.1f ms", len(lat), time.Since(begin).Seconds(), median(lat))
	if cfg.trace {
		lt, err := rec.totals()
		if err != nil {
			r.problem("trace reconciliation: %v", err)
		}
		r.setChainLayers(lt)
		writeSpans(cfg, rec)
		r.set("radar.detections_per_frame", float64(dets)/float64(max(lt.units, 1)), "count")
		r.set("trace.overhead_frac", median(tracedWall)/median(plainWall)-1, "ratio")
		r.setRuntime(mem, len(lat))
		r.setAbsent("radar.active_tracks", "radar.confirmed_tracks", "detect.score_ms")
		r.setAbsent(serviceLayers...)
		return r, nil
	}
	r.setLatency(lat)
	r.set("throughput_per_s", sustainedRate(calls), "1/s")
	return r, nil
}
