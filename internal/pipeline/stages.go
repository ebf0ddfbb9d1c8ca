package pipeline

import (
	"context"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// BackgroundSubtractStage streams successive-frame background subtraction
// (§3): it.Diff = frame − previous frame, holding exactly one frame of
// history. Frame 0 only seeds the history and leaves it.Diff nil. The
// difference frames and the history come from the chain's frame pool, so
// its steady state allocates nothing.
type BackgroundSubtractStage struct {
	diff fmcw.Differencer
}

func (s *BackgroundSubtractStage) Name() string { return "background-subtract" }

//rfvet:allocfree
func (s *BackgroundSubtractStage) Process(ctx context.Context, it *Item) error {
	if d, ok := s.diff.Step(it.Frame); ok {
		it.Diff = d
	}
	return nil
}

// RangeAngleStage computes the range–angle power profile (range FFT +
// Eq. 2 beamforming) of the background-subtracted frame into a recycled
// profile from the chain's pool. Items without a Diff pass through
// untouched.
type RangeAngleStage struct {
	pl   *radar.FrontEndPlan
	pool *radar.ProfilePool
}

func (s *RangeAngleStage) Name() string { return "range-angle" }

//rfvet:allocfree
func (s *RangeAngleStage) Process(ctx context.Context, it *Item) error {
	if it.Diff == nil {
		return nil
	}
	prof := s.pool.Get()
	if err := s.pl.RangeAngleInto(ctx, it.Diff, prof); err != nil {
		s.pool.Put(prof) // partially written: contents are unspecified anyway
		return err
	}
	it.Profile = prof
	return nil
}

// PeakExtractStage extracts target detections from the profile into the
// item's recycled Detections buffer, so its steady state allocates
// nothing. Items without a Profile pass through untouched; items with one
// always get a detection set (possibly empty) and HasDets = true. The
// detections are valid only while the item is in flight: a stage that
// keeps them copies them.
type PeakExtractStage struct {
	pl    *radar.FrontEndPlan
	array fmcw.Array
}

func (s *PeakExtractStage) Name() string { return "peak-extract" }

//rfvet:allocfree
func (s *PeakExtractStage) Process(ctx context.Context, it *Item) error {
	if it.Profile == nil {
		return nil
	}
	it.Detections = s.pl.DetectInto(it.Detections, it.Profile, s.array)
	it.HasDets = true
	return nil
}

// FrontEndStagesPlanned is the eavesdropper front end as a stage chain —
// background-subtract → range FFT/beamform → peak-extract — ready to
// prepend to a tracker, collector or evaluation stage. Every kernel runs
// through the shared plan (see radar.PlanFrontEnd) and every steady-state
// buffer — difference frames, profiles, detection slices — is recycled, so
// the whole chain allocates nothing per frame once warm. Pair it with a
// source feeding from pools.Frames and Pipeline.UsePools(pools) so the
// buffers flow back. A chain carries frames of the plan's shape only.
func FrontEndStagesPlanned(pl *radar.FrontEndPlan, array fmcw.Array, pools *Pools) []Stage {
	bg := &BackgroundSubtractStage{}
	bg.diff.UsePool(pools.Frames)
	return []Stage{
		bg,
		&RangeAngleStage{pl: pl, pool: pools.Profiles},
		&PeakExtractStage{pl: pl, array: array},
	}
}

// DopplerStage computes a sliding-window range–Doppler map over the last K
// raw frames: a K-frame ring buffer (fmcw.Window) feeds per-range-bin
// slow-time FFTs through the plan, and once the window is full every frame
// carries the map ending at it (it.RangeDoppler), drawn from the chain's
// Doppler pool. The slow-time sampling interval is the frame interval
// 1/FrameRate, so the unambiguous velocity band is ±λ·FrameRate/4 — faster
// radial motion aliases, exactly as it would for a real chirp-coherent
// processor at that frame rate.
type DopplerStage struct {
	pl      *radar.FrontEndPlan
	win     *fmcw.Window
	antenna int
	burst   []*fmcw.Frame // scratch reused every frame
	pool    *radar.DopplerPool
}

// NewDopplerPlanned returns a Doppler stage over the shared plan with a
// K-frame window observing the given antenna (window < 2 is treated as 2 —
// one frame has no slow time), its maps drawn from pool.
func NewDopplerPlanned(pl *radar.FrontEndPlan, window, antenna int, pool *radar.DopplerPool) *DopplerStage {
	if window < 2 {
		window = 2
	}
	return &DopplerStage{pl: pl, win: fmcw.NewWindow(window), antenna: antenna, pool: pool}
}

func (s *DopplerStage) Name() string { return "range-doppler" }

func (s *DopplerStage) Process(ctx context.Context, it *Item) error {
	// The window must own its history: items are recycled (or dropped) as
	// soon as their stage chain completes, so the stage copies each frame
	// into its ring instead of aliasing it. A warmed-up ring reuses the
	// evicted slot's storage, so the copy costs no allocation.
	s.win.PushCopy(it.Frame)
	if !s.win.Full() {
		return nil
	}
	s.burst = s.win.Frames(s.burst[:0])
	m := s.pool.Get()
	if err := s.pl.RangeDopplerInto(ctx, m, s.burst, s.antenna, 1/it.Frame.Params.FrameRate); err != nil {
		s.pool.Put(m) // partially written: contents are unspecified anyway
		return err
	}
	it.RangeDoppler = m
	return nil
}

// TrackStage feeds each frame's detections into a multi-target tracker:
// empty detection sets are skipped, times come from the detections. Built
// with NewTrackWithVelocity it additionally stamps active tracks with
// radial velocities from the frame's range–Doppler map whenever one is
// present.
type TrackStage struct {
	tr       *radar.Tracker
	array    fmcw.Array
	velocity bool
}

// NewTrack returns a tracking stage over a fresh tracker (zero-valued
// config fields take radar defaults).
func NewTrack(cfg radar.TrackerConfig) *TrackStage {
	return &TrackStage{tr: radar.NewTracker(cfg)}
}

// NewTrackWithVelocity is NewTrack plus per-track radial-velocity
// estimation: items carrying a RangeDoppler map (from a DopplerStage
// earlier in the chain) update every active track's RadialVelocity through
// the given array geometry.
func NewTrackWithVelocity(cfg radar.TrackerConfig, array fmcw.Array) *TrackStage {
	return &TrackStage{tr: radar.NewTracker(cfg), array: array, velocity: true}
}

func (s *TrackStage) Name() string { return "track" }

func (s *TrackStage) Process(ctx context.Context, it *Item) error {
	if it.HasDets && len(it.Detections) > 0 {
		s.tr.Observe(it.Detections[0].Time, it.Detections)
	}
	if s.velocity && it.RangeDoppler != nil {
		s.tr.AttachVelocities(it.RangeDoppler, s.array)
	}
	return nil
}

// Tracks returns the confirmed tracks accumulated so far (see
// radar.Tracker.Tracks).
func (s *TrackStage) Tracks() []*radar.Track { return s.tr.Tracks() }

// Tracker exposes the stage's tracker for per-frame observers (the spoof
// scorer walks its active tracks after each Process call). Callers must
// apply the same synchronization they use around Process.
func (s *TrackStage) Tracker() *radar.Tracker { return s.tr }

// BreathingPhaseStage extracts the unwrapped carrier phase at a range bin
// from every raw frame — the vital-sign monitor of §11.4 — holding only the
// incremental unwrap state. The accumulated series is its output.
type BreathingPhaseStage struct {
	ex       radar.BreathingExtractor
	distance float64
	ps       *radar.PhaseStream
}

// NewBreathingPhase returns a phase stage monitoring the given distance.
func NewBreathingPhase(ex radar.BreathingExtractor, distance float64) *BreathingPhaseStage {
	return &BreathingPhaseStage{ex: ex, distance: distance}
}

func (s *BreathingPhaseStage) Name() string { return "breathing-phase" }

func (s *BreathingPhaseStage) Process(ctx context.Context, it *Item) error {
	if s.ps == nil {
		s.ps = s.ex.NewStream(it.Frame.Params, s.distance)
	}
	s.ps.Step(it.Frame)
	return nil
}

// Series returns the frame times and unwrapped phase samples so far,
// bit-identical to BreathingExtractor.PhaseSeries over the same frames.
func (s *BreathingPhaseStage) Series() (times, phase []float64) {
	if s.ps == nil {
		return nil, nil
	}
	return s.ps.Series()
}
