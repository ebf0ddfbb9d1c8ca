package fmcw

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"rfprotect/internal/parallel"
)

// Return is one reflection arriving at the radar during a chirp. The channel
// model (internal/scene and internal/reflector) reduces every physical
// effect — walls, humans, switching reflectors — to a list of Returns.
type Return struct {
	Delay     float64 // round-trip propagation delay in seconds
	Amplitude float64 // linear amplitude at the receiver
	AoA       float64 // angle of arrival, radians in [0, π] from the array axis
	FreqShift float64 // extra beat-frequency offset in Hz (reflector switching)
	Phase     float64 // extra carrier phase in radians (phase shifter, micro-motion)
}

// Frame is the dechirped output of one chirp across all array elements:
// Data[k][i] is IF sample i on antenna k.
type Frame struct {
	Params Params
	Time   float64 // capture time in seconds (frame timestamp)
	Data   [][]complex128
}

// NewFrame allocates a zeroed frame for the given parameters. Rows are cut
// from one backing array with three-index slices, so each row's capacity is
// exactly its length: an append to Data[k] copies out instead of silently
// overwriting Data[k+1]'s samples.
func NewFrame(p Params, at float64) *Frame {
	n := p.SamplesPerChirp()
	data := make([][]complex128, p.NumAntennas)
	backing := make([]complex128, p.NumAntennas*n)
	for k := range data {
		data[k], backing = backing[:n:n], backing[n:]
	}
	return &Frame{Params: p, Time: at, Data: data}
}

// Reset zeroes every sample, leaving Params and Time untouched.
func (f *Frame) Reset() {
	for _, row := range f.Data {
		for i := range row {
			row[i] = 0
		}
	}
}

// SameShape reports whether g has the same antenna count and per-row sample
// count as f — the compatibility check for in-place frame operations and
// pool membership.
func (f *Frame) SameShape(g *Frame) bool {
	if len(f.Data) != len(g.Data) {
		return false
	}
	for k := range f.Data {
		if len(f.Data[k]) != len(g.Data[k]) {
			return false
		}
	}
	return true
}

// CopyFrom overwrites f with g's parameters, timestamp, and samples. It
// panics if the shapes differ; it never aliases g's storage.
func (f *Frame) CopyFrom(g *Frame) {
	if !f.SameShape(g) {
		panic("fmcw: CopyFrom with mismatched frame shapes")
	}
	f.Params = g.Params
	f.Time = g.Time
	for k := range f.Data {
		copy(f.Data[k], g.Data[k])
	}
}

// Synthesize produces the beat-domain frame for a set of returns at capture
// time at, adding AWGN from rng (rng may be nil for a noiseless frame). It
// runs with one worker per available CPU; see SynthesizeWorkers for the
// pool-size contract and the reproducibility guarantee.
//
// For a return with delay τ, extra beat offset f_x and extra phase φ, the
// contribution to antenna k at IF sample time t is
//
//	A · exp(j2π((sl·τ + f_x)·t + f_c·τ)) · exp(jφ) · exp(-j2π·k·d·cos(AoA)/λ)
//
// matching Eq. 1–2 of the paper.
func Synthesize(p Params, returns []Return, at float64, rng *rand.Rand) *Frame {
	return SynthesizeWorkers(p, returns, at, rng, 0)
}

// SynthesizeWorkers is Synthesize with an explicit worker-pool size
// (workers <= 0 means one per available CPU). Antennas are synthesized
// concurrently, each worker writing only its own antenna's row.
//
// Output is bit-identical for every worker count: per-antenna accumulation
// visits returns in slice order regardless of scheduling, and noise is not
// drawn from the shared rng inside the pool — a single base seed is drawn
// from rng up front and split into one deterministic stream per antenna
// (parallel.SplitSeed), so antenna k's noise depends only on (base, k).
func SynthesizeWorkers(p Params, returns []Return, at float64, rng *rand.Rand, workers int) *Frame {
	f, _ := SynthesizeCtx(nil, p, returns, at, rng, workers)
	return f
}

// SynthesizeCtx is SynthesizeWorkers with cooperative cancellation: the
// antenna fan-out stops once ctx is done and the call returns (nil,
// ctx.Err()). The noise base seed is drawn from rng before the fan-out
// either way, so a canceled synthesis still consumes exactly one draw —
// callers that retain the rng after cancellation abort the whole capture,
// never resume it. A nil ctx is exactly SynthesizeWorkers.
func SynthesizeCtx(ctx context.Context, p Params, returns []Return, at float64, rng *rand.Rand, workers int) (*Frame, error) {
	f := NewFrame(p, at)
	if err := SynthesizeInto(ctx, f, returns, rng, workers); err != nil {
		return nil, err
	}
	return f, nil
}

// SynthesizeInto is the destination-passing form of SynthesizeCtx: it
// accumulates the returns (and noise) into dst, whose Params and Time
// select the configuration and capture time. dst must be zeroed — a frame
// fresh from NewFrame or FramePool.Get — because synthesis adds
// contributions on top of the existing samples. It performs no frame
// allocation; per-antenna noise comes from pooled streams keyed by
// parallel.SplitSeed, so the bits are identical to SynthesizeCtx for
// the same (rng state, Params, Time, returns) regardless of pooling or
// worker count. On cancellation dst holds partial data and must be
// discarded (or Reset) by the caller.
//
// Synthesis runs through the shared compiled SynthPlan for dst's shape
// (PlanSynth) — the planned kernel is the defining semantics; see
// SynthesizeLegacyInto for the retained pre-plan reference.
//
//rfvet:allocfree
func SynthesizeInto(ctx context.Context, dst *Frame, returns []Return, rng *rand.Rand, workers int) error {
	return PlanSynth(dst.Params).SynthesizeInto(ctx, dst, returns, rng, workers)
}

// SynthesizeLegacyInto is the pre-plan synthesis kernel: the serial
// per-(return × antenna) phasor recurrence, retained as the ULP reference
// for the planned path (tests pin the planned samples to it within a
// relative tolerance) and as the baseline for the synth_plan speedup gate
// in cmd/bench. Same contract as SynthesizeInto — same noise draws, same
// worker-count bit-identity — but the sample bits differ from the planned
// kernel's at the ULP level. New callers want SynthesizeInto.
func SynthesizeLegacyInto(ctx context.Context, dst *Frame, returns []Return, rng *rand.Rand, workers int) error {
	p := dst.Params
	noisy := rng != nil && p.NoiseStd > 0
	var base int64
	if noisy {
		base = rng.Int63()
	}
	j := getSynthJob()
	j.dst, j.returns, j.noisy, j.base = dst, returns, noisy, base
	err := parallel.ForEachCtx(ctx, p.NumAntennas, workers, j.fn)
	putSynthJob(j)
	return err
}

// synthJob carries one SynthesizeLegacyInto fan-out's state to the workers
// through fn, a method value bound once when the job is first built and
// recycled with it, so steady-state synthesis creates no closure: an
// inline func literal capturing (dst, returns, noisy, base) would escape
// to the heap on every call.
type synthJob struct {
	dst     *Frame
	returns []Return
	noisy   bool
	base    int64
	fn      func(int)
}

// antenna synthesizes antenna k's row; it is the per-index unit handed to
// parallel.ForEachCtx and touches only row k plus its own pooled noise
// stream.
func (j *synthJob) antenna(k int) {
	j.dst.addReturnsAntenna(k, j.returns)
	if j.noisy {
		addNoise(j.dst.Data[k], j.dst.Params.NoiseStd, j.base, k)
	}
}

// synthJobs is the job free list. A mutex-guarded slice (the repo's free
// list idiom) rather than sync.Pool so a parked job — and the one-time
// closure bound to it — survives GC cycles between frames.
var synthJobs struct {
	mu   sync.Mutex
	free []*synthJob
}

func getSynthJob() *synthJob {
	synthJobs.mu.Lock()
	var j *synthJob
	if n := len(synthJobs.free); n > 0 {
		j = synthJobs.free[n-1]
		synthJobs.free[n-1] = nil
		synthJobs.free = synthJobs.free[:n-1]
	}
	synthJobs.mu.Unlock()
	if j == nil {
		j = new(synthJob)
		j.fn = j.antenna
	}
	return j
}

// putSynthJob parks a job, dropping its frame and returns references so a
// parked job pins nothing.
func putSynthJob(j *synthJob) {
	j.dst, j.returns = nil, nil
	synthJobs.mu.Lock()
	synthJobs.free = append(synthJobs.free, j)
	synthJobs.mu.Unlock()
}

// AddReturns accumulates the beat contributions of the given returns into
// the frame, one antenna at a time.
func (f *Frame) AddReturns(returns []Return) {
	for k := 0; k < f.Params.NumAntennas; k++ {
		f.addReturnsAntenna(k, returns)
	}
}

// addReturnsAntenna accumulates every return into antenna k's row. It is
// the per-worker unit of SynthesizeWorkers and touches no state outside
// Data[k]; returns are added in slice order so the floating-point
// accumulation order per sample is fixed.
func (f *Frame) addReturnsAntenna(k int, returns []Return) {
	p := f.Params
	n := p.SamplesPerChirp()
	sl := p.Slope()
	lambda := p.Wavelength()
	d := p.Spacing()
	dt := 1 / p.SampleRate
	row := f.Data[k]
	for _, r := range returns {
		if r.Amplitude == 0 {
			continue
		}
		beat := sl*r.Delay + r.FreqShift
		// A frequency-shifting modulator (the RF-Protect switch) free-runs
		// across chirps, so its tone's phase at this chirp's start depends
		// on absolute capture time — this is what gives the shifted
		// reflection a Doppler signature in chirp-coherent processing.
		carrier := 2*math.Pi*p.CenterFreq*r.Delay + r.Phase + 2*math.Pi*r.FreqShift*f.Time
		// Per-sample rotation for this return.
		step := 2 * math.Pi * beat * dt
		stepC := complex(math.Cos(step), math.Sin(step))
		steer := -2 * math.Pi * float64(k) * d * math.Cos(r.AoA) / lambda
		ph0 := carrier + steer
		cur := complex(r.Amplitude*math.Cos(ph0), r.Amplitude*math.Sin(ph0))
		for i := 0; i < n; i++ {
			row[i] += cur
			cur *= stepC
		}
	}
}

// AddNoise adds the frame's noise for base seed base: circular complex
// Gaussian noise of standard deviation Params.NoiseStd per I/Q component,
// antenna k drawing from the stream keyed by parallel.SplitSeed(base, k).
// It is exactly the noise a synthesis adds when its rng yields base as the
// noise draw (see noise.go for the contract).
func (f *Frame) AddNoise(base int64) {
	if f.Params.NoiseStd <= 0 {
		return
	}
	for k, row := range f.Data {
		addNoise(row, f.Params.NoiseStd, base, k)
	}
}

// Differencer is the streaming form of successive-frame background
// subtraction (§3): feed it frames one at a time and it emits cur - prev,
// holding exactly one frame of history. The zero value is ready to use.
//
// The history is the differencer's own copy, never a retained caller
// frame: Step reads the input only for the duration of the call, so a
// pooled source may recycle or overwrite the frame as soon as its item has
// finished the stage chain. With UsePool, the emitted difference frames
// come from (and their history scratch is returned to) a FramePool, making
// the steady state allocation-free; ownership of each emitted frame passes
// to the caller, who returns it to the same pool when done (in the
// streaming pipeline, the pipeline itself recycles it when the item
// completes — see DESIGN.md "Buffer ownership & pooling").
type Differencer struct {
	prev *Frame
	pool *FramePool
}

// UsePool makes the differencer draw its output (and history) frames from
// the given pool. Call it before the first Step.
func (d *Differencer) UsePool(p *FramePool) { d.pool = p }

func (d *Differencer) getFrame(p Params, at float64) *Frame {
	if d.pool != nil {
		return d.pool.Get(at)
	}
	return NewFrame(p, at)
}

// Step consumes the next frame and returns its background-subtracted
// difference against the previous one. The first frame only seeds the
// history: Step returns (nil, false) for it, so frame 0 contributes no
// detection set. The returned frame is owned
// by the caller; in pooled mode it must eventually go back to the pool.
func (d *Differencer) Step(f *Frame) (*Frame, bool) {
	if d.prev == nil {
		d.prev = d.getFrame(f.Params, f.Time)
		d.prev.CopyFrom(f)
		return nil, false
	}
	if !d.prev.SameShape(f) {
		panic("fmcw: Differencer.Step with mismatched frame shapes")
	}
	out := d.getFrame(f.Params, f.Time)
	out.Params, out.Time = f.Params, f.Time
	// One fused pass: emit f - prev and update the history to f, touching
	// each row once. The arithmetic matches Sub exactly, so pooled and
	// non-pooled runs are bit-identical.
	for k := range f.Data {
		fr, pr, or := f.Data[k], d.prev.Data[k], out.Data[k]
		for i := range fr {
			or[i] = fr[i] - pr[i]
			pr[i] = fr[i]
		}
	}
	d.prev.Time = f.Time
	return out, true
}

// Reset drops the held history so the next Step seeds it again, returning
// the history scratch to the pool when one is configured.
func (d *Differencer) Reset() {
	if d.pool != nil && d.prev != nil {
		d.pool.Put(d.prev)
	}
	d.prev = nil
}

// Sub returns f - g sample-wise as a new frame: the successive-frame
// background subtraction primitive of §3 ("Addressing Static Reflectors").
// It is the allocating wrapper over SubInto.
func (f *Frame) Sub(g *Frame) *Frame {
	out := NewFrame(f.Params, f.Time)
	f.SubInto(out, g)
	return out
}

// SubInto writes f - g sample-wise into dst, stamping it with f's Params
// and Time — the destination-passing form of Sub for callers recycling
// difference frames through a FramePool. It panics if the frames have
// different shapes. dst may alias f or g.
//
//rfvet:allocfree
func (f *Frame) SubInto(dst, g *Frame) {
	if len(f.Data) != len(g.Data) || len(f.Data) != len(dst.Data) {
		panic("fmcw: SubInto with mismatched antenna counts")
	}
	dst.Params, dst.Time = f.Params, f.Time
	for k := range f.Data {
		if len(f.Data[k]) != len(g.Data[k]) || len(f.Data[k]) != len(dst.Data[k]) {
			panic("fmcw: SubInto with mismatched sample counts")
		}
		fr, gr, dr := f.Data[k], g.Data[k], dst.Data[k]
		for i := range fr {
			dr[i] = fr[i] - gr[i]
		}
	}
}
