package fmcw

import (
	"math"
	"math/rand"
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
// time at, adding AWGN from rng (rng may be nil for a noiseless frame). It is
// the allocating form of (*SynthPlan).SynthesizeInto over the shared plan
// for p (PlanSynth), with one worker per available CPU; the worker count
// never changes the bits.
//
// For a return with delay τ, extra beat offset f_x and extra phase φ, the
// contribution to antenna k at IF sample time t is
//
//	A · exp(j2π((sl·τ + f_x)·t + f_c·τ)) · exp(jφ) · exp(-j2π·k·d·cos(AoA)/λ)
//
// matching Eq. 1–2 of the paper.
func Synthesize(p Params, returns []Return, at float64, rng *rand.Rand) *Frame {
	f := NewFrame(p, at)
	// A nil ctx never cancels, so the call cannot fail.
	_ = PlanSynth(p).SynthesizeInto(nil, f, returns, rng, 0)
	return f
}

// AddReturns accumulates the beat contributions of the given returns into
// the frame, one antenna at a time, by the serial per-sample phasor
// recurrence. It is the plain statement of Eq. 1–2 that the planned kernel
// restructures: AddReturns followed by AddNoise(rng.Int63()) is the ULP
// reference for (*SynthPlan).SynthesizeInto.
func (f *Frame) AddReturns(returns []Return) {
	for k := 0; k < f.Params.NumAntennas; k++ {
		f.addReturnsAntenna(k, returns)
	}
}

// addReturnsAntenna accumulates every return into antenna k's row. It
// touches no state outside Data[k]; returns are added in slice order so the
// floating-point accumulation order per sample is fixed.
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
