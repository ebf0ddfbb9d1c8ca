package fmcw

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"rfprotect/internal/parallel"
)

// SynthPlan is the synthesis-side sibling of radar.FrontEndPlan: everything
// about beat-signal synthesis that depends only on the Params shape —
// derived constants, per-antenna steering scales, and a free list of warmed
// execution contexts — compiled once and shared by every caller with that
// shape (all rooms of one configuration in the daemon share one plan).
//
// The plan restructures Frame.AddReturns' arithmetic: instead of running
// the serial per-sample phasor recurrence cur *= stepC once per
// (return × antenna), it builds one rotation table per return
// (tab[i] = A-free e^{j·step·i}) and reduces every antenna to a scaled
// complex multiply-accumulate row[i] += amp_k · tab[i] — NumAntennas× fewer
// serial recurrences, and the MAC is vectorizable (synth_amd64.s). The
// planned samples differ from AddReturns' at the ULP level (the table is
// built by a 4-stride recurrence, and the steering phase is computed from a
// precompiled per-antenna scale), so the planned path is the defining
// semantics and the only synthesis kernel; AddReturns followed by
// AddNoise(rng.Int63()) remains as the ULP reference. What is preserved
// exactly: bit-identity across worker counts, AVX ≡ scalar fallback,
// planned-vs-planned determinism, and the noise contract (one base draw,
// per-antenna split streams).
type SynthPlan struct {
	params Params
	n      int // samples per chirp
	nAnt   int

	sl      float64 // chirp slope
	dt      float64 // IF sample period
	twoPiFc float64 // 2π·CenterFreq

	// steerScale[k] = -2π·k·d/λ: antenna k's steering phase for a return is
	// steerScale[k]·cos(AoA).
	steerScale []float64

	mu   sync.Mutex
	free []*synthExec
}

// CompileSynthPlan builds the synthesis plan for a parameter shape. Plans
// are immutable after compilation (the executor free list has its own
// lock), so one plan serves concurrent synthesis calls; overlapping calls
// each check out their own executor.
func CompileSynthPlan(p Params) *SynthPlan {
	pl := &SynthPlan{
		params:  p,
		n:       p.SamplesPerChirp(),
		nAnt:    p.NumAntennas,
		sl:      p.Slope(),
		dt:      1 / p.SampleRate,
		twoPiFc: 2 * math.Pi * p.CenterFreq,
	}
	lambda := p.Wavelength()
	d := p.Spacing()
	pl.steerScale = make([]float64, pl.nAnt)
	for k := range pl.steerScale {
		pl.steerScale[k] = -2 * math.Pi * float64(k) * d / lambda
	}
	return pl
}

// Params returns the shape the plan was compiled for.
func (pl *SynthPlan) Params() Params { return pl.params }

// synthPlans is the global shape-keyed plan cache behind the package-level
// synthesis entry points, mirroring the dsp package's FFT plan cache: the
// first synthesis of a shape compiles its plan, every later one reuses it.
var synthPlans struct {
	mu sync.Mutex
	m  map[Params]*SynthPlan
}

// PlanSynth returns the shared plan for a parameter shape, compiling it on
// first use. The compile runs under the cache lock so a racing first use
// never compiles the same shape twice.
func PlanSynth(p Params) *SynthPlan {
	synthPlans.mu.Lock()
	pl := synthPlans.m[p]
	if pl == nil {
		pl = CompileSynthPlan(p)
		if synthPlans.m == nil {
			synthPlans.m = make(map[Params]*SynthPlan)
		}
		synthPlans.m[p] = pl
	}
	synthPlans.mu.Unlock()
	return pl
}

// synthExec is one synthesis execution context: the compacted per-return
// parameters, the per-return rotation tables, and the pre-bound fan-out
// closures of a single SynthesizeInto call in flight. Executors live on the
// plan's free list; their table storage is the memory rooms of one shape
// share across frames.
type synthExec struct {
	pl *SynthPlan

	// Per active (nonzero-amplitude) return, filled by prep: the per-sample
	// rotation stepC split into planes, the antenna-independent phase
	// carrier, the amplitude, and cos(AoA) for the steering phase.
	stepR, stepI []float64
	carrier      []float64
	amp          []float64
	cosA         []float64
	// tab holds the rotation tables, one n-sample row per active return.
	tab  []complex128
	nact int

	tabFn func(int)
	rowFn func(int)
	// Per-call state read by the closures; cleared on exit.
	dst   *Frame
	noisy bool
	base  int64
}

func (pl *SynthPlan) getExec() *synthExec {
	pl.mu.Lock()
	if k := len(pl.free); k > 0 {
		e := pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		pl.mu.Unlock()
		return e
	}
	pl.mu.Unlock()
	return pl.newExec()
}

func (pl *SynthPlan) putExec(e *synthExec) {
	pl.mu.Lock()
	pl.free = append(pl.free, e)
	pl.mu.Unlock()
}

// newExec builds an executor with its fan-out closures bound once — method
// values, recycled with the executor, so steady-state synthesis creates no
// closure. Scratch slices start empty and grow to the first call's return
// count (growSynthFloats/growSynthComplexes, kept out of the annotated hot
// bodies), then stay.
func (pl *SynthPlan) newExec() *synthExec {
	e := &synthExec{pl: pl}
	e.tabFn = e.table
	e.rowFn = e.antenna
	return e
}

// prep compacts the nonzero-amplitude returns into the executor's parallel
// per-return arrays and sizes the table storage. Zero-amplitude returns are
// skipped exactly as AddReturns skips them, so the planned
// accumulation visits the same returns in the same order.
//
//rfvet:allocfree
func (e *synthExec) prep(returns []Return) {
	pl := e.pl
	nr := 0
	for _, r := range returns {
		if r.Amplitude == 0 {
			continue
		}
		nr++
	}
	e.stepR = growSynthFloats(e.stepR, nr)
	e.stepI = growSynthFloats(e.stepI, nr)
	e.carrier = growSynthFloats(e.carrier, nr)
	e.amp = growSynthFloats(e.amp, nr)
	e.cosA = growSynthFloats(e.cosA, nr)
	e.tab = growSynthComplexes(e.tab, nr*pl.n)
	i := 0
	at := e.dst.Time
	for _, r := range returns {
		if r.Amplitude == 0 {
			continue
		}
		beat := pl.sl*r.Delay + r.FreqShift
		// The frequency-shifting modulator free-runs across chirps, so its
		// tone's phase at this chirp's start depends on absolute capture
		// time — same expression as AddReturns (see addReturnsAntenna).
		e.carrier[i] = pl.twoPiFc*r.Delay + r.Phase + 2*math.Pi*r.FreqShift*at
		step := 2 * math.Pi * beat * pl.dt
		e.stepR[i], e.stepI[i] = math.Cos(step), math.Sin(step)
		e.amp[i] = r.Amplitude
		e.cosA[i] = math.Cos(r.AoA)
		i++
	}
	e.nact = nr
}

// table builds active return r's rotation table — the phase-1 unit of the
// fan-out. Each index writes only its own table row, so any worker width
// produces the same bits.
//
//rfvet:allocfree
func (e *synthExec) table(r int) {
	n := e.pl.n
	buildPhasorTab(e.tab[r*n:(r+1)*n], e.stepR[r], e.stepI[r])
}

// buildPhasorTab fills tab[i] = stepC^i for stepC = (sr, si) by a 4-stride
// recurrence: the first four powers seed four independent dependency
// chains, then tab[i] = tab[i-4]·stepC⁴ — this IS the defining semantics,
// implemented identically by the scalar loop and the AVX kernel (two ymm
// chains of two complexes each, same multiply formula per lane), so the
// two paths are bit-identical by construction. Compared with AddReturns'
// serial recurrence the strided form both shortens the dependency chain
// 4× and accumulates less rounding (n/4 multiplies per chain instead of n).
//
//rfvet:allocfree
func buildPhasorTab(tab []complex128, sr, si float64) {
	n := len(tab)
	if n == 0 {
		return
	}
	tab[0] = complex(1, 0)
	for i := 1; i < 4 && i < n; i++ {
		tr, ti := real(tab[i-1]), imag(tab[i-1])
		tab[i] = complex(sr*tr-si*ti, sr*ti+si*tr)
	}
	if n <= 4 {
		return
	}
	// stepC⁴, continuing the seed chain.
	t3r, t3i := real(tab[3]), imag(tab[3])
	s4r := sr*t3r - si*t3i
	s4i := sr*t3i + si*t3r
	i := 4
	if useSynthAVX && n >= 8 {
		n4 := n &^ 3
		synthTabAVX(&tab[0], n4, s4r, s4i)
		i = n4
	}
	for ; i < n; i++ {
		tr, ti := real(tab[i-4]), imag(tab[i-4])
		tab[i] = complex(s4r*tr-s4i*ti, s4r*ti+s4i*tr)
	}
}

// antenna accumulates every active return into antenna k's row, then adds
// antenna k's noise stream — the phase-2 unit of the fan-out. It reads the
// shared tables (complete after the phase-1 barrier) and writes only row k
// plus its own pooled noise stream, so any worker width produces the same
// bits; per sample, returns accumulate in compacted order, the same
// relative order as AddReturns.
//
//rfvet:allocfree
func (e *synthExec) antenna(k int) {
	pl := e.pl
	row := e.dst.Data[k]
	scale := pl.steerScale[k]
	n := pl.n
	for r := 0; r < e.nact; r++ {
		ph0 := e.carrier[r] + scale*e.cosA[r]
		a := e.amp[r]
		cr := a * math.Cos(ph0)
		ci := a * math.Sin(ph0)
		macRow(row, e.tab[r*n:(r+1)*n], cr, ci)
	}
	if e.noisy {
		addNoise(row, pl.params.NoiseStd, e.base, k)
	}
}

// macRow performs the scaled complex multiply-accumulate
// row[i] += (cr, ci)·tab[i]. The scalar loop is the defining semantics; the
// AVX kernel executes the same multiply/addsub/add sequence per lane
// (VMULPD/VADDSUBPD/VADDPD are lanewise IEEE-754 double ops and amd64
// never contracts to FMA), so vector and scalar paths are bit-identical.
// Note tab[0] = 1+0i makes sample 0 exactly (cr, ci) — AddReturns' first
// sample, bit for bit.
//
//rfvet:allocfree
func macRow(row, tab []complex128, cr, ci float64) {
	i := 0
	if useSynthAVX && len(row) >= 4 {
		n4 := len(row) &^ 3
		synthMacAVX(&row[0], &tab[0], n4, cr, ci)
		i = n4
	}
	for ; i < len(row); i++ {
		tr, ti := real(tab[i]), imag(tab[i])
		row[i] += complex(cr*tr-ci*ti, cr*ti+ci*tr)
	}
}

// SynthesizeInto accumulates the returns (and noise) into dst through the
// compiled plan: phase 1 fans out over active returns to build rotation
// tables, phase 2 fans out over antennas for the scaled MAC plus the
// per-antenna noise stream. The ForEachCtx barrier between the phases is
// what makes the output bit-identical for every worker count: phase 2 reads
// tables that are complete regardless of the phase-1 schedule, and each
// phase writes only disjoint destinations. dst must be zeroed (synthesis
// adds on top) and must have the plan's shape. The noise base seed is drawn
// before the fan-out, so a canceled synthesis still consumes exactly one
// draw; on cancellation dst holds partial data and must be discarded (or
// Reset) by the caller. After the executor free list is warm a call
// allocates nothing.
//
//rfvet:allocfree
func (pl *SynthPlan) SynthesizeInto(ctx context.Context, dst *Frame, returns []Return, rng *rand.Rand, workers int) error {
	if dst.Params != pl.params {
		panic("fmcw: SynthesizeInto on a frame shape the plan was not compiled for")
	}
	noisy := rng != nil && pl.params.NoiseStd > 0
	var base int64
	if noisy {
		base = rng.Int63()
	}
	e := pl.getExec()
	e.dst, e.noisy, e.base = dst, noisy, base
	e.prep(returns)
	err := parallel.ForEachCtx(ctx, e.nact, workers, e.tabFn)
	if err == nil {
		err = parallel.ForEachCtx(ctx, pl.nAnt, workers, e.rowFn)
	}
	e.dst = nil
	pl.putExec(e)
	return err
}

// growSynthFloats returns s resized to n, reallocating only when capacity
// is short. Kept out of line (and out of the //rfvet:allocfree executors'
// inlined bodies) so the one-time growth is the only allocation site.
//
//go:noinline
func growSynthFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growSynthComplexes is growSynthFloats for complex slices.
//
//go:noinline
func growSynthComplexes(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}
