package analysis

import (
	"go/ast"
	"go/types"
)

// SeedSplit enforces the deterministic-randomness contract of DESIGN.md
// ("Concurrency model"): results must be bit-identical for any worker
// count, which randomized code guarantees only when every independent unit
// of work derives its own stream with parallel.SplitSeed.
//
// Four rules:
//
//  1. No global math/rand source. rand.Intn, rand.Float64, rand.Shuffle
//     and friends draw from a process-wide stream whose consumption order
//     depends on goroutine scheduling — and on every other caller in the
//     binary. All randomness must flow through an explicit *rand.Rand.
//  2. No ad-hoc seed arithmetic. rand.NewSource(seed+1), NewSource(seed*7)
//     and the like put adjacent streams a handful of increments apart in
//     seed space and invite collisions between call sites that picked the
//     same offset; stream derivation must go through parallel.SplitSeed,
//     whose SplitMix64 finalizer is the one blessed mixing function.
//  3. A worker closure (a func literal handed to a go statement or passed
//     as a call argument, e.g. to parallel.Group.GoCtx or ForEach) that
//     constructs a source must derive it via parallel.SplitSeed: a
//     captured base seed — split or not — decides which stream each
//     concurrent unit owns, and only SplitSeed keys it on the unit index.
//  4. A noise stream's seed method — (*noiseStream).seed, fmcw's
//     math/rand-compatible generator, matched by type name so fixtures can
//     declare their own — must be passed a parallel.SplitSeed(...) result
//     directly. It replaces rand.NewSource on the synthesis hot path, and
//     the per-antenna key SplitSeed(base, k) is what makes a frame's noise
//     independent of the worker schedule.
var SeedSplit = &Analyzer{
	Name: "seedsplit",
	Doc: "flags global math/rand use and ad-hoc seed arithmetic that bypasses " +
		"parallel.SplitSeed, the invariant behind worker-count-independent output",
	Run: runSeedSplit,
}

// globalRandFuncs are the math/rand package-level functions that consume
// the shared global source (rand.New/NewSource/NewZipf construct state and
// are fine).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runSeedSplit(p *Pass) error {
	for _, f := range p.Files {
		workers := workerFuncLits(f)
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if isNoiseStreamSeed(fn) {
				if len(call.Args) == 1 && !isSplitSeedCall(p.TypesInfo, call.Args[0]) {
					p.Reportf(call.Pos(),
						"noiseStream.seed must be keyed by parallel.SplitSeed(base, k) directly, so each antenna's noise stream depends only on (base, k)")
				}
				return true
			}
			if fn.Pkg().Path() != "math/rand" {
				return true
			}
			if globalRandFuncs[fn.Name()] && funcSig(fn).Recv() == nil {
				p.Reportf(call.Pos(),
					"rand.%s draws from the global math/rand source, whose stream depends on scheduling; use an explicit rand.New(rand.NewSource(...)) seeded via parallel.SplitSeed",
					fn.Name())
				return true
			}
			if !isPkgFunc(fn, "math/rand", "NewSource") || len(call.Args) != 1 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			switch {
			// Commands are exempt from the closure rule (but not from the
			// global-source and seed-arithmetic rules): cmd/bench wraps
			// single-threaded measurement sections in func literals, which
			// are not concurrent units.
			case !p.IsMain() && inWorkerLit(stack, workers) && !isSplitSeedCall(p.TypesInfo, arg):
				p.Reportf(call.Pos(),
					"rand.NewSource in a worker closure must derive its stream with parallel.SplitSeed(base, i) so each concurrent unit owns a schedule-independent stream")
			case hasSeedArithmetic(p.TypesInfo, arg):
				p.Reportf(call.Pos(),
					"ad-hoc seed arithmetic in rand.NewSource; derive the stream with parallel.SplitSeed(base, k) instead of a hand-picked offset")
			}
			return true
		})
	}
	return nil
}

// workerFuncLits collects the func literals that run as concurrent or
// callee-controlled units: operands of go statements and literals passed
// directly as call arguments (parallel.Group.Go/GoCtx, ForEach bodies).
func workerFuncLits(f *ast.File) map[*ast.FuncLit]bool {
	set := map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				set[lit] = true
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					set[lit] = true
				}
			}
		}
		return true
	})
	return set
}

// inWorkerLit reports whether the node at the top of the stack sits inside
// one of the worker literals.
func inWorkerLit(stack []ast.Node, workers map[*ast.FuncLit]bool) bool {
	for _, n := range stack {
		if lit, ok := n.(*ast.FuncLit); ok && workers[lit] {
			return true
		}
	}
	return false
}

// isSplitSeedCall reports whether e is a call to a SplitSeed function of a
// parallel package (rfprotect/internal/parallel in this module; matched by
// suffix so fixtures of other modules can supply their own).
func isSplitSeedCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "SplitSeed" && fn.Pkg() != nil &&
		pathEndsWith(fn.Pkg().Path(), "parallel")
}

// isNoiseStreamSeed reports whether fn is the seed method of a type named
// noiseStream (pointer or value receiver).
func isNoiseStreamSeed(fn *types.Func) bool {
	recv := funcSig(fn).Recv()
	if fn.Name() != "seed" || recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "noiseStream"
}

// hasSeedArithmetic reports whether e contains a binary arithmetic
// expression outside any parallel.SplitSeed call (whose arguments are free
// to mix — SplitSeed("seed+200", trial) namespaces a stream family).
func hasSeedArithmetic(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isSplitSeedCall(info, call) {
			return false
		}
		if _, ok := n.(*ast.BinaryExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// pathEndsWith reports whether the import path's final element is elem.
func pathEndsWith(path, elem string) bool {
	if path == elem {
		return true
	}
	n := len(path) - len(elem)
	return n > 0 && path[n-1] == '/' && path[n:] == elem
}
