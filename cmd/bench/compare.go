package main

import (
	"fmt"
	"math"
	"sort"
)

// This file is the -baseline regression gate. Result rows are matched by
// name and streaming rows by (name, frames); every name is unique within a
// snapshot. The worker column is machine-dependent (rows measured at
// GOMAXPROCS workers carry whatever width the baseline machine had), so it
// is not part of the key. A row missing from either side, or a duplicated
// key, means the harness and the committed baseline disagree, and the fix
// is to regenerate the baseline, not to loosen the gate.
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
// scaled complex MAC, see fmcw.SynthPlan) must stay >= 2x the serial
// reference it restructures (Frame.AddReturns plus AddNoise) on the
// identical workload. noise_stream is the noise
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

// indexKeys maps each key to its row, reporting (as gate failures) any key
// that occurs more than once.
func indexKeys(side, kind string, keys []string) (map[string]int, []string) {
	idx := make(map[string]int, len(keys))
	var fails []string
	for i, k := range keys {
		if _, dup := idx[k]; dup {
			fails = append(fails, fmt.Sprintf("%s has two %s rows %s — row names must be unique", side, kind, k))
			continue
		}
		idx[k] = i
	}
	return idx, fails
}

// matchRows pairs base and run rows by key, in baseline order, and reports
// every row present on only one side.
func matchRows(kind string, baseKeys, runKeys []string) (pairs [][2]int, fails []string) {
	bIdx, fails := indexKeys("baseline", kind, baseKeys)
	rIdx, rf := indexKeys("run", kind, runKeys)
	fails = append(fails, rf...)
	for i, k := range baseKeys {
		if bIdx[k] != i {
			continue // a duplicate, already reported
		}
		if r, ok := rIdx[k]; ok {
			pairs = append(pairs, [2]int{i, r})
		} else {
			fails = append(fails, fmt.Sprintf("%s row %s is in the baseline but not the run — regenerate the baseline with `make bench`", kind, k))
		}
	}
	for i, k := range runKeys {
		if _, ok := bIdx[k]; !ok && rIdx[k] == i {
			fails = append(fails, fmt.Sprintf("%s row %s is in the run but not the baseline — regenerate the baseline with `make bench`", kind, k))
		}
	}
	return pairs, fails
}

// compareSnapshots checks run against base and returns one human-readable
// message per regression; an empty slice means the gate passes.
func compareSnapshots(base, run *Snapshot, maxNsRatio float64) []string {
	if base.Schema != run.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %d, run %d", base.Schema, run.Schema)}
	}
	resultKeys := func(rows []Result) []string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = fmt.Sprintf("%q", r.Name)
		}
		return keys
	}
	pairs, fails := matchRows("result", resultKeys(base.Results), resultKeys(run.Results))
	for _, p := range pairs {
		b, r := base.Results[p[0]], run.Results[p[1]]
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*maxNsRatio {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f ns/op exceeds baseline %.0f × %.1f",
				r.Name, r.Workers, r.NsPerOp, b.NsPerOp, maxNsRatio))
		}
		if allocsComparable(b, r) && math.Round(r.AllocsPerOp) > math.Round(b.AllocsPerOp) {
			fails = append(fails, fmt.Sprintf("%s (workers=%d): %.0f allocs/op, baseline %.0f — an allocation crept into a pooled steady state",
				r.Name, r.Workers, math.Round(r.AllocsPerOp), math.Round(b.AllocsPerOp)))
		}
	}
	streamKeys := func(rows []StreamResult) []string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = fmt.Sprintf("%q/%d frames", r.Name, r.Frames)
		}
		return keys
	}
	pairs, sf := matchRows("streaming", streamKeys(base.Streaming), streamKeys(run.Streaming))
	fails = append(fails, sf...)
	for _, p := range pairs {
		b, r := base.Streaming[p[0]], run.Streaming[p[1]]
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
