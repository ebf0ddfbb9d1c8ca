package service

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// Room states, as reported by RoomStatus.State.
const (
	stateRunning  = "running"
	stateDraining = "draining"
	stateDone     = "done"
	stateFailed   = "failed"
)

// Room hosts one tenant session: a core.Session with its own buffer pools,
// processor, and pooled stage chain, driven by a single runner goroutine
// owned by the Manager. All cross-goroutine access (status, track dumps,
// ingest pushes, subscriptions) goes through the Room's own synchronization;
// the pipeline itself stays single-threaded and bit-identical to the
// library path.
type Room struct {
	ID  string
	cfg RoomConfig

	sess  *core.Session
	pools *pipeline.Pools
	pipe  *pipeline.Pipeline
	trk   *pipeline.TrackStage
	// det accumulates spoof-suspicion evidence against the room's tracks.
	// Guarded by trkMu like the tracker itself: the emit stage feeds it on
	// the runner goroutine, HTTP handlers score through it.
	det *detect.TrackScorer

	sh       *shard
	shardIdx int
	cancel   context.CancelFunc // hard-cancels the runner (set by the Manager)

	// stop ends the room's source: a synthetic source EOFs at the next
	// frame boundary, an ingest queue closes (its buffered frames still
	// drain through the pipeline). done closes when the runner has
	// finished and the final state is readable.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Ingest queue (ingest mode only). qMu serializes enqueues against the
	// drain-time close: pushes are non-blocking sends under the read lock,
	// so close(q) under the write lock can never race a send in flight —
	// every Push that returned nil has its frame in the buffer, and the
	// closed channel hands those frames to the source before io.EOF. That
	// is the no-dropped-in-flight-frames drain guarantee.
	q chan *fmcw.Frame
	//rfvet:lockrank 50
	qMu     sync.RWMutex
	qClosed bool
	space   chan struct{} // capacity 1: pulsed when the source frees a slot

	framesDone atomic.Int64
	dropped    atomic.Int64

	// trkMu guards the tracker: the emit stage mutates it on the runner
	// goroutine while status/track handlers read it from HTTP goroutines.
	// It is the leaf of the lock hierarchy — nothing is acquired under it.
	//
	//rfvet:lockrank 70
	trkMu sync.Mutex

	// ghostMu serializes the controller's disclosure log across handlers.
	//
	//rfvet:lockrank 60
	ghostMu sync.Mutex

	//rfvet:lockrank 40
	mu       sync.Mutex
	state    string
	runErr   error
	lastTime float64
	subs     map[*subscriber]struct{}
	finished bool
}

// ctxDone adapts a possibly-nil ctx for select: a nil ctx yields a nil
// channel, which blocks forever — i.e. never cancels, matching the
// pipeline's nil-ctx convention.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// newRoom assembles a room exactly as a library caller would: session,
// humans, ghosts, shared plan, pools, planned front end, optional Doppler,
// tracker — in that order, so a synthetic room's output is bit-identical to
// the same assembly run by hand. Plans are process-wide: rooms of one shape
// share one radar.PlanFrontEnd plan, and their scenes one fmcw.PlanSynth
// synthesis plan.
func newRoom(cfg RoomConfig, shardIdx int, sh *shard) (*Room, error) {
	env, err := roomByName(cfg.Room)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(core.SessionConfig{Room: env, NoMultipath: cfg.NoMultipath})
	if err != nil {
		return nil, err
	}
	sc := sess.Scene
	for _, h := range cfg.Humans {
		rate := h.Rate
		if rate == 0 {
			rate = sc.Params.FrameRate
		}
		sc.Humans = append(sc.Humans, scene.NewHuman(h.trajectory(), rate))
	}
	for _, g := range cfg.Ghosts {
		rate := g.Rate
		if rate == 0 {
			rate = sc.Params.FrameRate
		}
		if _, err := sess.Ctl.ProgramForRadar(g.trajectory(), sc.Radar, rate, g.Start); err != nil {
			return nil, err
		}
	}

	r := &Room{
		ID:       cfg.ID,
		cfg:      cfg,
		sess:     sess,
		sh:       sh,
		shardIdx: shardIdx,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		state:    stateRunning,
		subs:     make(map[*subscriber]struct{}),
	}

	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	r.pools = pipeline.NewPools(sc.Params)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, r.pools)
	if cfg.DopplerWindow > 0 {
		stages = append(stages, pipeline.NewDopplerPlanned(plan, cfg.DopplerWindow, 0, r.pools.Doppler))
		// Velocity history feeds the kinematic Doppler-consistency check.
		r.trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{KeepVelocityHistory: true}, sc.Radar)
	} else {
		r.trk = pipeline.NewTrack(radar.TrackerConfig{})
	}
	r.det = detect.NewTrackScorer(detect.Config{}, sc.Radar)
	stages = append(stages, &emitStage{r: r})

	var src pipeline.Source
	if cfg.Frames > 0 {
		fs := sc.Stream(0, cfg.Frames, rand.New(rand.NewSource(cfg.Seed))).UsePool(r.pools.Frames)
		src = pipeline.Source(fs)
		if cfg.FrameRate > 0 {
			src = pipeline.NewPaced(src, cfg.FrameRate)
		}
		src = &drainSource{src: src, stop: r.stop}
	} else {
		r.q = make(chan *fmcw.Frame, cfg.QueueDepth)
		r.space = make(chan struct{}, 1)
		src = &queueSource{r: r}
	}
	r.pipe = pipeline.New(src, stages...).UsePools(r.pools)
	return r, nil
}

// Mode reports "synthetic" or "ingest".
func (r *Room) Mode() string {
	if r.cfg.Frames > 0 {
		return "synthetic"
	}
	return "ingest"
}

// run drives the room's pipeline to completion. It is the runner
// goroutine's body; the Manager joins it through its WaitGroup.
func (r *Room) run(ctx context.Context) {
	_, err := r.pipe.Run(ctx)
	r.finish(err)
}

// drainSource ends a synthetic stream at the next frame boundary once the
// room drains: the frame in flight always completes every stage, so a drain
// never abandons partial work.
type drainSource struct {
	src  pipeline.Source
	stop chan struct{}
}

func (s *drainSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	select {
	case <-s.stop:
		return nil, io.EOF
	default:
	}
	return s.src.Next(ctx)
}

// queueSource feeds an ingest room from its bounded queue. A closed queue
// (drain) still yields its buffered frames before io.EOF.
type queueSource struct{ r *Room }

func (s *queueSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	select {
	case f, ok := <-s.r.q:
		if !ok {
			return nil, io.EOF
		}
		s.r.signalSpace()
		return f, nil
	case <-ctxDone(ctx):
		return nil, ctx.Err()
	}
}

// signalSpace pulses the space channel so one blocked pusher retries.
func (r *Room) signalSpace() {
	select {
	case r.space <- struct{}{}:
	default:
	}
}

// Push enqueues one frame into an ingest room. Ownership of f transfers to
// the room only on a nil return; on any error the caller keeps f (and
// should recycle it). The full-queue policy is the room's: block until
// space frees (backpressure, the default) or fail fast with ErrBacklogged
// (load-shedding, Shed: true). Pushing to a synthetic room returns
// ErrNotIngest; pushing after a drain began returns ErrDraining.
func (r *Room) Push(ctx context.Context, f *fmcw.Frame) error {
	if r.q == nil {
		return ErrNotIngest
	}
	for {
		r.qMu.RLock()
		if r.qClosed {
			r.qMu.RUnlock()
			return ErrDraining
		}
		select {
		case r.q <- f:
			r.qMu.RUnlock()
			return nil
		default:
		}
		r.qMu.RUnlock()
		if r.cfg.Shed {
			r.dropped.Add(1)
			r.sh.dropped.Add(1)
			return ErrBacklogged
		}
		select {
		case <-r.space:
			// A slot freed (or a stale pulse): retry the enqueue.
		case <-r.stop:
			return ErrDraining
		case <-ctxDone(ctx):
			return ctx.Err()
		}
	}
}

// beginDrain stops the room's intake exactly once: synthetic sources EOF at
// the next frame, ingest queues close (buffered frames still process), and
// the state flips to draining until the runner finishes.
func (r *Room) beginDrain() {
	r.stopOnce.Do(func() {
		r.mu.Lock()
		if r.state == stateRunning {
			r.state = stateDraining
		}
		r.mu.Unlock()
		close(r.stop)
		if r.q != nil {
			r.qMu.Lock()
			r.qClosed = true
			close(r.q)
			r.qMu.Unlock()
		}
	})
}

// emitStage is the room's sink stage: it advances the tracker and the spoof
// scorer under trkMu (HTTP handlers read the same tracker and scorer),
// counts the frame, and broadcasts the post-frame snapshot to every
// subscriber.
type emitStage struct{ r *Room }

func (s *emitStage) Name() string { return "track-emit" }

func (s *emitStage) Process(ctx context.Context, it *pipeline.Item) error {
	r := s.r
	r.trkMu.Lock()
	err := r.trk.Process(ctx, it)
	if err == nil && it.RangeDoppler != nil {
		r.det.Observe(it.RangeDoppler, r.trk.Tracker())
	}
	r.trkMu.Unlock()
	if err != nil {
		return err
	}
	r.observe(it)
	return nil
}

// observe builds and broadcasts the per-frame event. Runs on the runner
// goroutine only.
func (r *Room) observe(it *pipeline.Item) {
	r.framesDone.Add(1)
	r.sh.frames.Add(1)
	ev := Event{Room: r.ID, Frame: it.Index, Time: it.Frame.Time}
	if it.HasDets {
		ev.Detections = make([]DetectionSpec, len(it.Detections))
		for i, d := range it.Detections {
			ev.Detections[i] = DetectionSpec{Range: d.Range, AoA: d.AoA, Power: d.Power, X: d.Pos.X, Y: d.Pos.Y}
		}
	}
	ev.Tracks = r.trackSpecs()
	r.mu.Lock()
	r.lastTime = it.Frame.Time
	for sub := range r.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow consumer: drop this event rather than stall the room —
			// output-side load-shedding. The count is observable per shard.
			sub.dropped.Add(1)
			r.sh.eventsDropped.Add(1)
		}
	}
	r.mu.Unlock()
}

// finish records the terminal state and closes every subscriber stream.
// Subscribers observe the closure and fetch the final snapshot themselves
// (FinalEvent), which is immutable from here on.
func (r *Room) finish(err error) {
	r.mu.Lock()
	if err != nil {
		r.state = stateFailed
		r.runErr = err
	} else {
		r.state = stateDone
	}
	r.finished = true
	subs := r.subs
	r.subs = nil
	r.mu.Unlock()
	for sub := range subs {
		close(sub.ch)
	}
	close(r.done)
}

// subscriber is one NDJSON stream consumer: a bounded event buffer that
// sheds (with a count) instead of backpressuring the room.
type subscriber struct {
	ch      chan Event
	dropped atomic.Int64
}

// Subscribe registers a stream consumer with the given buffer (<= 0 means
// 16). If the room has already finished, the returned channel is closed
// immediately — the consumer goes straight to FinalEvent.
func (r *Room) Subscribe(buf int) *subscriber {
	if buf <= 0 {
		buf = 16
	}
	sub := &subscriber{ch: make(chan Event, buf)}
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		close(sub.ch)
		return sub
	}
	r.subs[sub] = struct{}{}
	r.mu.Unlock()
	return sub
}

// Unsubscribe detaches a consumer. Safe after finish (the map is gone).
func (r *Room) Unsubscribe(sub *subscriber) {
	r.mu.Lock()
	if r.subs != nil {
		delete(r.subs, sub)
	}
	r.mu.Unlock()
}

// trackSpecs snapshots the confirmed tracks' latest points with their live
// spoof-suspicion scores.
func (r *Room) trackSpecs() []TrackSpec {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	trs := r.trk.Tracks()
	if len(trs) == 0 {
		return nil
	}
	out := make([]TrackSpec, len(trs))
	for i, tr := range trs {
		out[i] = trackSpec(tr, r.det.Score(tr))
	}
	return out
}

// TrackDumps exports every confirmed track at full resolution, scored.
func (r *Room) TrackDumps() []TrackDump {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	trs := r.trk.Tracks()
	out := make([]TrackDump, len(trs))
	for i, tr := range trs {
		out[i] = trackDump(tr, r.det.Score(tr))
	}
	return out
}

// SuspectTracks counts confirmed tracks whose suspicion crosses the default
// thresholds — the per-room value behind the /metrics gauge.
func (r *Room) SuspectTracks() int {
	r.trkMu.Lock()
	defer r.trkMu.Unlock()
	return r.suspectTracksLocked()
}

// suspectTracksLocked is SuspectTracks without the lock (caller holds trkMu).
func (r *Room) suspectTracksLocked() int {
	n := 0
	for _, tr := range r.trk.Tracks() {
		if r.det.Score(tr).Flagged() {
			n++
		}
	}
	return n
}

// FinalEvent is the room's closing stream line: the terminal snapshot sent
// after the event channel closes.
func (r *Room) FinalEvent() Event {
	r.mu.Lock()
	ev := Event{
		Room:  r.ID,
		Frame: int(r.framesDone.Load()) - 1,
		Time:  r.lastTime,
		Final: true,
	}
	if r.runErr != nil {
		ev.Error = r.runErr.Error()
	}
	r.mu.Unlock()
	ev.Tracks = r.trackSpecs()
	return ev
}

// QueueDepth reports the current ingest backlog (0 for synthetic rooms).
func (r *Room) QueueDepth() int {
	if r.q == nil {
		return 0
	}
	return len(r.q)
}

// Status snapshots the room for the API.
func (r *Room) Status() RoomStatus {
	r.mu.Lock()
	state := r.state
	errStr := ""
	if r.runErr != nil {
		errStr = r.runErr.Error()
	}
	r.mu.Unlock()
	st := RoomStatus{
		ID:         r.ID,
		State:      state,
		Mode:       r.Mode(),
		Shard:      r.shardIdx,
		Frames:     int(r.framesDone.Load()),
		QueueDepth: r.QueueDepth(),
		Dropped:    r.dropped.Load(),
		Error:      errStr,
	}
	r.trkMu.Lock()
	st.Tracks = len(r.trk.Tracks())
	st.Suspects = r.suspectTracksLocked()
	r.trkMu.Unlock()
	return st
}

// ProgramGhost appends a ghost program to the room's tag and disclosure
// log. Synthetic rooms synthesize from the tag on the runner goroutine, so
// programming one mid-capture would race the synthesis — it is rejected
// with ErrBusy until the room finishes. Ingest rooms never synthesize; their
// tag exists for the disclosure workflow and accepts programs any time.
func (r *Room) ProgramGhost(spec TrajSpec) (reflector.GhostRecord, error) {
	if r.Mode() == "synthetic" {
		r.mu.Lock()
		running := !r.finished
		r.mu.Unlock()
		if running {
			return reflector.GhostRecord{}, ErrBusy
		}
	}
	rate := spec.Rate
	if rate == 0 {
		rate = r.sess.Scene.Params.FrameRate
	}
	r.ghostMu.Lock()
	defer r.ghostMu.Unlock()
	return r.sess.Ctl.ProgramForRadar(spec.trajectory(), r.sess.Scene.Radar, rate, spec.Start)
}

// GhostStatuses lists the room's disclosure records.
func (r *Room) GhostStatuses() []GhostStatus {
	r.ghostMu.Lock()
	recs := r.sess.Ctl.Records()
	r.ghostMu.Unlock()
	out := make([]GhostStatus, len(recs))
	for i, rec := range recs {
		out[i] = GhostStatus{Index: i, Start: rec.Start, Tick: rec.Tick, Entries: len(rec.Entries)}
	}
	return out
}
