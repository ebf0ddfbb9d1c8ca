package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"time"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
	"rfprotect/internal/service"
)

const (
	// sessionFrames is the length of one session unit: 100 s of capture at
	// 20 fps, long enough that per-frame cost shows its growth with track
	// history.
	sessionFrames = 2000
	// loopFrames is the period of the scenario's trajectories: 10 s at
	// 20 fps. Captures of any multiple of it can be replayed in a loop
	// without a jump.
	loopFrames = 200
	// dopplerWindow is the range–Doppler window of the chain, as an
	// rfprotectd room with "doppler_window": 8 runs it.
	dopplerWindow = 8
	// sessionShare is the share of a traced run spent on sessions; the
	// daemon phase takes the rest.
	sessionShare = 0.7
	// followTol is how far (median, in m) a track may stray from a target
	// and still count as following it; followMin is the fewest points it
	// must hold.
	followTol = 0.3
	followMin = 100
)

// scenario is a home-room deployment generated from a seed: one human and
// one programmed ghost, each walking a closed ellipse once every loopFrames.
type scenario struct {
	seed         int64
	human, ghost geom.Trajectory // one point per frame
}

// newScenario draws the two loops' centres, radii and phases from seed.
func newScenario(seed int64, frames int) scenario {
	rng := rand.New(rand.NewSource(seed))
	cx := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams()).Radar.Position.X
	j := func(s float64) float64 { return s * (2*rng.Float64() - 1) }
	loop := func(x, y, rx, ry, phase float64) geom.Trajectory {
		t := make(geom.Trajectory, frames)
		for i := range t {
			a := phase + 2*math.Pi*float64(i)/loopFrames
			t[i] = geom.Point{X: x + rx*math.Cos(a), Y: y + ry*math.Sin(a)}
		}
		return t
	}
	return scenario{
		seed:  seed,
		human: loop(cx-2.2+j(0.2), 4.2+j(0.2), 1.2+j(0.1), 0.8+j(0.1), 2*math.Pi*rng.Float64()),
		ghost: loop(cx+1.6+j(0.2), 3.6+j(0.2), 0.7+j(0.1), 0.5+j(0.1), 2*math.Pi*rng.Float64()),
	}
}

// plans are the compiled synthesis and front-end plans every chain of one
// shape shares, as rfprotectd's plan cache shares them across rooms.
type plans struct {
	synth *fmcw.SynthPlan
	front *radar.FrontEndPlan
}

func compilePlans() plans {
	p := fmcw.DefaultParams()
	return plans{fmcw.CompileSynthPlan(p), radar.CompileFrontEndPlan(radar.DefaultConfig(), p)}
}

// chain is the one processing path the daemon and the CLI share: the
// planned front end, a range–Doppler stage, a velocity tracker, and a
// benchmark-owned stage feeding the spoof scorer.
type chain struct {
	pools  *pipeline.Pools
	stages []pipeline.Stage
	trk    *pipeline.TrackStage
	det    *detect.TrackScorer
	obs    *observeStage
}

func newChain(pl plans, array fmcw.Array, rec *recorder) *chain {
	c := &chain{pools: pipeline.NewPools(fmcw.DefaultParams())}
	c.stages = pipeline.FrontEndStagesPlanned(pl.front, array, c.pools)
	c.stages = append(c.stages, pipeline.NewDopplerPlanned(pl.front, dopplerWindow, 0, c.pools.Doppler))
	c.trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, array)
	c.det = detect.NewTrackScorer(detect.Config{}, array)
	c.obs = &observeStage{trk: c.trk, det: c.det, rec: rec}
	if rec != nil {
		c.obs.id = rec.id("detect.observe")
	}
	c.stages = append(c.stages, c.trk, c.obs)
	return c
}

// observeStage is the chain's last stage: it feeds each range–Doppler map
// to TrackScorer.Observe, as an rfprotectd room's emit stage does, and
// stamps the time each frame completes. Traced, it also times Observe as a
// child span and counts detections and active tracks.
type observeStage struct {
	trk *pipeline.TrackStage
	det *detect.TrackScorer
	rec *recorder
	id  int32

	base   time.Time
	done   []time.Duration // completion time of each frame since base
	dets   int
	active int
}

func (s *observeStage) Name() string { return "detect-observe" }

func (s *observeStage) Process(_ context.Context, it *pipeline.Item) error {
	if it.RangeDoppler != nil {
		if s.rec != nil {
			i := s.rec.begin(s.id)
			s.det.Observe(it.RangeDoppler, s.trk.Tracker())
			s.rec.end(i)
		} else {
			s.det.Observe(it.RangeDoppler, s.trk.Tracker())
		}
	}
	if s.rec != nil {
		s.dets += len(it.Detections)
		s.trk.Tracker().ForEachActive(func(*radar.Track) { s.active++ })
	}
	s.done = append(s.done, time.Since(s.base))
	return nil
}

// run drives src through the chain and returns the wall time. Frame
// completion times are stamped relative to base.
func (c *chain) run(src pipeline.Source, frames int, base time.Time, rec *recorder) (time.Duration, error) {
	c.obs.done = make([]time.Duration, 0, frames)
	c.obs.base = base
	n, wall, err := runChain(src, c.stages, c.pools, rec)
	if err == nil && n != frames {
		err = fmt.Errorf("chain processed %d frames, want %d", n, frames)
	}
	return wall, err
}

// frames returns each frame's interval through a chain run that started at
// start (relative to the run's base): from the previous frame's completion,
// or the start, to its own.
func (c *chain) frames(start time.Duration) [][2]time.Duration {
	out := make([][2]time.Duration, len(c.obs.done))
	prev := start
	for i, d := range c.obs.done {
		out[i] = [2]time.Duration{prev, d}
		prev = d
	}
	return out
}

// dumps exports the confirmed tracks with their spoof scores, field for
// field as rfprotectd's GET /v1/rooms/{id}/tracks does.
func (c *chain) dumps() []service.TrackDump {
	trs := c.trk.Tracks()
	return trackDumps(trs, c.det.Scores(trs))
}

func trackDumps(trs []*radar.Track, scores []detect.TrackScore) []service.TrackDump {
	out := make([]service.TrackDump, len(trs))
	for i, tr := range trs {
		sc := scores[i]
		d := service.TrackDump{
			ID: tr.ID, Confirmed: tr.Confirmed, RadialVelocity: tr.RadialVelocity, HasVelocity: tr.HasVelocity,
			SpoofHarmonic: sc.Harmonic, SpoofKinematic: sc.Kinematic, Suspicion: sc.Suspicion,
			ScoredFrames: sc.Frames, Suspect: sc.Flagged(), Points: make([]service.TimedPoint, len(tr.Points)),
		}
		for j, p := range tr.Points {
			d.Points[j] = service.TimedPoint{Time: p.Time, X: p.Pos.X, Y: p.Pos.Y}
		}
		out[i] = d
	}
	return out
}

// deployment is a scenario assembled on core.NewSession: the scene with
// the human walking and the ghost programmed on the tag.
type deployment struct {
	sc    *scene.Scene
	human *scene.Human
	ghost reflector.GhostRecord
	tag   reflector.Config
}

func deploy(sn scenario, pl plans) (*deployment, error) {
	sess, err := core.NewSession(core.SessionConfig{Room: scene.HomeRoom()})
	if err != nil {
		return nil, err
	}
	sc := sess.Scene
	sc.UseSynthPlan(pl.synth)
	h := scene.NewHuman(sn.human, sc.Params.FrameRate)
	sc.Humans = append(sc.Humans, h)
	rec, err := sess.Ctl.ProgramForRadar(sn.ghost, sc.Radar, sc.Params.FrameRate, 0)
	if err != nil {
		return nil, err
	}
	return &deployment{sc: sc, human: h, ghost: rec, tag: sess.Tag.Config()}, nil
}

// stream returns the deployment's pooled capture of n frames, with its
// noise drawn from seed.
func (d *deployment) stream(n int, seed int64, pools *pipeline.Pools) *scene.FrameStream {
	return d.sc.Stream(0, n, rand.New(rand.NewSource(seed))).UsePool(pools.Frames)
}

// checkFollowing reports a problem unless one confirmed track follows the
// human and one follows the ghost's expected observation.
func (d *deployment) checkFollowing(r *report, label string, tracks []*radar.Track) {
	exp := d.ghost.ExpectedObservation(d.tag, d.sc.Radar)
	ghostAt := func(t float64) (geom.Point, bool) {
		i := int(math.Round((t - d.ghost.Start) / d.ghost.Tick))
		if i < 0 || i >= len(exp) {
			return geom.Point{}, false
		}
		return exp[i], true
	}
	humanAt := func(t float64) (geom.Point, bool) { return d.human.PositionAt(t), true }
	for _, target := range []struct {
		name string
		at   func(float64) (geom.Point, bool)
	}{{"human", humanAt}, {"ghost", ghostAt}} {
		best, bestPts := math.Inf(1), 0
		for _, tr := range tracks {
			if len(tr.Points) < followMin {
				continue
			}
			var errs []float64
			for _, p := range tr.Points {
				if q, ok := target.at(p.Time); ok {
					errs = append(errs, p.Pos.Dist(q))
				}
			}
			if len(errs) >= followMin {
				if e := median(errs); e < best {
					best, bestPts = e, len(tr.Points)
				}
			}
		}
		if best > followTol {
			r.problem("%s: no confirmed track of >= %d points follows the %s within %.2f m (best median error %.3f m)",
				label, followMin, target.name, followTol, best)
		} else {
			logf("%s: %s followed by a %d-point track, median error %.3f m", label, target.name, bestPts, best)
		}
	}
}

// probeSession is the session workload's cold set-up: compile the plans,
// assemble the deployment and the chain, and push the first second of
// capture through it.
func probeSession(seed int64) error {
	sn := newScenario(seed, sessionFrames)
	pl := compilePlans()
	d, err := deploy(sn, pl)
	if err != nil {
		return err
	}
	c := newChain(pl, d.sc.Radar, nil)
	const first = 20
	_, err = c.run(d.stream(first, seed, c.pools), first, time.Now(), nil)
	return err
}

// runSession runs back-to-back sessions of sessionFrames frames, all from
// the same seed, until the time is up. Every session must reproduce the
// first one's tracks exactly. A traced run alternates untraced and traced
// sessions for sessionShare of the time (the untraced ones give the
// runtime.* counts and the baseline for trace.overhead_frac), then serves
// the chain from an rfprotectd room for the rest (measureDaemon).
func runSession(cfg config) (*report, error) {
	r := newReport()
	if !cfg.trace {
		if _, err := probeSetup(r, "session", cfg.seed); err != nil {
			return nil, err
		}
	}
	sn := newScenario(cfg.seed, sessionFrames)
	pl := compilePlans()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		ref                   []service.TrackDump
		frameMs, plainWall    []float64
		tracedWall, scoreMs   []float64
		frames                [][2]time.Duration // untraced frames' intervals since begin
		mem                   memSnap
		memUnits, dets, activ int
		confirmed             []float64
	)
	debug.FreeOSMemory() // collect set-up garbage before the clock starts
	begin := time.Now()
	sessionSecs := cfg.seconds
	if cfg.trace {
		sessionSecs *= sessionShare
	}
	deadline := begin.Add(time.Duration(sessionSecs * float64(time.Second)))
	minSessions := 1
	if cfg.trace {
		minSessions = 2
	}
	for i := 0; i < minSessions || time.Now().Before(deadline); i++ {
		traced := cfg.trace && i%2 == 1
		d, err := deploy(sn, pl)
		if err != nil {
			return nil, err
		}
		var crec *recorder
		if traced {
			crec = rec
		}
		c := newChain(pl, d.sc.Radar, crec)
		r.attempted++
		before := readMem()
		start := time.Since(begin)
		wall, err := c.run(d.stream(sessionFrames, cfg.seed, c.pools), sessionFrames, begin, crec)
		trs := c.trk.Tracks()
		t := time.Now()
		scores := c.det.Scores(trs)
		score := time.Since(t)
		if !traced {
			mem.add(before, readMem())
			memUnits += sessionFrames
		}
		dumps := trackDumps(trs, scores)
		if err != nil {
			r.failed++
			r.problem("session %d: %v", i, err)
			continue
		}
		scoreMs = append(scoreMs, float64(score)/1e6)
		if traced {
			tracedWall = append(tracedWall, wall.Seconds())
			dets += c.obs.dets
			activ += c.obs.active
			confirmed = append(confirmed, float64(len(trs)))
		} else {
			plainWall = append(plainWall, wall.Seconds())
			for _, f := range c.frames(start) {
				frames = append(frames, f)
				frameMs = append(frameMs, float64(f[1]-f[0])/1e6)
			}
		}
		if ref == nil {
			ref = dumps
			d.checkFollowing(r, "session", trs)
		} else if !reflect.DeepEqual(dumps, ref) {
			r.problem("session %d (traced %v) tracks differ from session 0's: same seed must give the same tracks", i, traced)
		}
	}
	logf("session: %d sessions, %d untraced frames, median %.3f ms", r.attempted, len(frameMs), median(frameMs))
	if cfg.trace {
		lt, err := rec.totals()
		if err != nil {
			r.problem("trace reconciliation: %v", err)
		}
		r.setChainLayers(lt)
		writeSpans(cfg, rec)
		n := float64(max(lt.units, 1))
		r.set("radar.detections_per_frame", float64(dets)/n, "count")
		r.set("radar.active_tracks", float64(activ)/n, "count")
		r.set("radar.confirmed_tracks", median(confirmed), "count")
		r.set("detect.score_ms", median(scoreMs), "ms")
		r.set("trace.overhead_frac", median(tracedWall)/median(plainWall)-1, "ratio")
		r.setRuntime(mem, memUnits)
		if err := measureDaemon(cfg, r, pl, cfg.seconds-time.Since(begin).Seconds()); err != nil {
			return nil, fmt.Errorf("daemon phase: %w", err)
		}
		return r, nil
	}
	r.setLatency(frameMs)
	r.set("throughput_per_s", sustainedRate(frames), "1/s")
	hwm, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	r.set("peak_mem_mb", hwm, "MB")
	return r, nil
}
