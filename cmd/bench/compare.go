package main

import (
	"fmt"
	"math"
	"sort"
)

// This file is the -baseline regression gate. Rows are matched by position
// with the names cross-checked: the worker column is machine-dependent
// (rows measured at GOMAXPROCS workers carry whatever width the baseline
// machine had), so (name, workers) keys would spuriously mismatch across
// machines, while row order is fixed by runSnapshot. A name mismatch or a
// row-count change therefore means the harness and the committed baseline
// disagree, and the fix is to regenerate the baseline, not to loosen the
// gate.
//
// Two checks per row:
//
//   - ns/op (ns/frame for streaming rows) may grow up to maxNsRatio times
//     the baseline. The ratio is deliberately generous — CI machines are
//     noisy and slower than the machine that wrote the baseline — so the
//     timing gate only catches order-of-magnitude cliffs.
//   - allocs/op is compared exactly (after rounding) when BOTH rows are
//     marked AllocsExact and single-worker. Those rows are pooled steady
//     states whose allocation count is deterministic, so even one new
//     allocation per op is a real regression no matter how fast the
//     machine is.

// speedupFloors gates deliberate algorithmic wins: the named Speedups
// entries of the RUN (not the baseline) must stay at or above their floor.
// Both sides of each ratio are measured in the same run on the same
// machine, so unlike the ns/op gate no cross-machine tolerance is needed —
// a floor violation means the optimization itself regressed. synth_plan is
// the compiled-synthesis contract: the planned kernel (rotation tables +
// scaled complex MAC, see fmcw.SynthPlan) must stay >= 2x the retained
// legacy kernel on the identical workload. noise_stream is the noise
// contract's cost side: fmcw's noise stream must stay >= 1.6x math/rand's
// reseed-and-draw on one frame of identically keyed noise. Measured on a
// 2-vCPU Xeon: 2.6x with the AVX2 seed/refill kernels, 2.0x on the scalar
// loops (CPUs without AVX2), so the floor holds either path with headroom.
var speedupFloors = map[string]float64{
	"synth_plan":   2.0,
	"noise_stream": 1.6,
}

// baselineStreamLens extracts the capture lengths the baseline's streaming
// section was measured at, in first-appearance order, so a gating run can
// reproduce the same rows.
func baselineStreamLens(base *Snapshot) []int {
	var lens []int
	seen := make(map[int]bool)
	for _, s := range base.Streaming {
		if !seen[s.Frames] {
			seen[s.Frames] = true
			lens = append(lens, s.Frames)
		}
	}
	return lens
}

// allocsComparable reports whether a result row pair is subject to the
// exact allocation gate.
func allocsComparable(b, r Result) bool {
	return b.AllocsExact && r.AllocsExact && b.Workers <= 1 && r.Workers <= 1
}

// compareSnapshots checks run against base and returns one human-readable
// message per regression; an empty slice means the gate passes.
func compareSnapshots(base, run *Snapshot, maxNsRatio float64) []string {
	if base.Schema != run.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %d, run %d", base.Schema, run.Schema)}
	}
	var fails []string
	if len(run.Results) != len(base.Results) {
		fails = append(fails, fmt.Sprintf("result rows: baseline has %d, run has %d — regenerate the baseline with `make bench`",
			len(base.Results), len(run.Results)))
	}
	for i := 0; i < min(len(run.Results), len(base.Results)); i++ {
		b, r := base.Results[i], run.Results[i]
		if b.Name != r.Name {
			fails = append(fails, fmt.Sprintf("result row %d: run has %q where baseline has %q — regenerate the baseline",
				i, r.Name, b.Name))
			continue
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*maxNsRatio {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f ns/op exceeds baseline %.0f × %.1f",
				r.Name, r.Workers, r.NsPerOp, b.NsPerOp, maxNsRatio))
		}
		if allocsComparable(b, r) && math.Round(r.AllocsPerOp) > math.Round(b.AllocsPerOp) {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f allocs/op, baseline %.0f — an allocation crept into a pooled steady state",
				r.Name, r.Workers, math.Round(r.AllocsPerOp), math.Round(b.AllocsPerOp)))
		}
	}
	if len(run.Streaming) != len(base.Streaming) {
		fails = append(fails, fmt.Sprintf("streaming rows: baseline has %d, run has %d — regenerate the baseline with `make bench`",
			len(base.Streaming), len(run.Streaming)))
	}
	for i := 0; i < min(len(run.Streaming), len(base.Streaming)); i++ {
		b, r := base.Streaming[i], run.Streaming[i]
		if b.Name != r.Name || b.Frames != r.Frames {
			fails = append(fails, fmt.Sprintf("streaming row %d: run has %s/%d frames where baseline has %s/%d — regenerate the baseline",
				i, r.Name, r.Frames, b.Name, b.Frames))
			continue
		}
		if b.NsPerFrame > 0 && r.NsPerFrame > b.NsPerFrame*maxNsRatio {
			fails = append(fails, fmt.Sprintf("%s (%d frames): %.0f ns/frame exceeds baseline %.0f × %.1f",
				r.Name, r.Frames, r.NsPerFrame, b.NsPerFrame, maxNsRatio))
		}
	}
	floors := make([]string, 0, len(speedupFloors))
	for name := range speedupFloors {
		floors = append(floors, name)
	}
	sort.Strings(floors)
	for _, name := range floors {
		floor := speedupFloors[name]
		got, ok := run.Speedups[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("speedup %q missing from the run — the harness no longer measures a gated ratio", name))
			continue
		}
		if got < floor {
			fails = append(fails, fmt.Sprintf("speedup %s: %.2fx is below the %.1fx floor", name, got, floor))
		}
	}
	return fails
}
