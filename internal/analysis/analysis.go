// Package analysis is rfvet's engine: a small, self-contained clone of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// built entirely on the standard library's go/ast + go/types, because this
// module is dependency-free by policy (DESIGN.md "Concurrency model") and
// the build environment is offline. The API mirrors x/tools deliberately,
// so the analyzers would port to a real multichecker by changing imports.
//
// The package hosts four repo-specific analyzers that turn this codebase's
// load-bearing conventions into compile-time gates:
//
//   - seedsplit: randomness must be reproducible for any worker count —
//     no global math/rand source, no ad-hoc seed arithmetic in place of
//     parallel.SplitSeed, and fmcw's noise streams keyed by SplitSeed.
//   - ctxflow: a function that receives a context must thread it, and
//     must not synthesize context.Background()/TODO() outside main
//     packages, tests, and annotated legacy wrappers.
//   - goroleak: every `go` statement in a library package must have a
//     visible join (WaitGroup/Group Wait, channel receive or range) in
//     the function that spawned it.
//   - wallclock: no wall-clock reads (time.Now, time.Sleep, ...) in
//     deterministic library code.
//   - poolcheck: pooled buffers (FramePool/ProfilePool/... Get, the
//     pipeline Item list) must reach Put on every non-error path or be
//     handed off; no use-after-Put; no capture by goroutine closures.
//   - lockorder: //rfvet:lockrank-annotated mutexes must be acquired in
//     strictly increasing rank order, including through same-package
//     calls (the shard → room → trkMu hierarchy, checked like lockdep).
//   - saturate: in packages defining finiteOrHuge, exported float64
//     results must be saturated through it.
//
// An eighth check, allocfree (escape.go), is not a Pass-based analyzer: it
// drives `go build -gcflags=-m` and fails when a //rfvet:allocfree-
// annotated function has a heap-escape diagnostic. cmd/rfvet runs it
// behind the -allocfree flag.
//
// Any diagnostic can be suppressed at the source line with an escape
// hatch comment — see allow.go for the grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one named invariant check, in the image of
// x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rfvet:allow comments. It must be a single lower-case word.
	Name string

	// Doc is the one-paragraph description printed by `rfvet -help`.
	Doc string

	// Run applies the analyzer to one package and reports findings
	// through the pass. It returns an error only for internal failures;
	// invariant violations are diagnostics, not errors.
	Run func(*Pass) error
}

// All returns the full rfvet AST-analyzer suite in stable order. The
// allocfree escape-analysis pass is separate (see AllocFree): it needs the
// compiler, not a Pass.
func All() []*Analyzer {
	return []*Analyzer{SeedSplit, CtxFlow, GoroLeak, WallClock, PoolCheck, LockOrder, Saturate}
}

// Diagnostic is one reported violation, positioned in the loaded FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Allowed marks a diagnostic that an //rfvet:allow comment
	// suppresses. Such diagnostics are dropped from normal runs and do
	// not affect exit codes; Options.IncludeAllowed keeps them (for the
	// -json audit trail) with AllowedBy naming the suppressing comment.
	Allowed   bool
	AllowedBy string
}

// String renders the diagnostic in the file:line:col style go vet uses.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Options tunes a Run beyond the analyzer list.
type Options struct {
	// RequireJustification reports any //rfvet:allow comment missing the
	// "-- justification" clause (make lint sets this: an exemption
	// without a recorded reason is unreviewable).
	RequireJustification bool

	// IncludeAllowed keeps suppressed diagnostics in the result, marked
	// Allowed with AllowedBy set, instead of dropping them.
	IncludeAllowed bool
}

// Pass carries one analyzer's view of one type-checked package, in the
// image of x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ModulePath is the analyzed module's path (e.g. "rfprotect"), so
	// analyzers can distinguish first-party callees from the stdlib.
	ModulePath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsMain reports whether the analyzed package is a command (package main).
// The analyzers exempt commands from determinism rules: main wires flags,
// signal handlers, and wall-clock UX; the library underneath stays pure.
func (p *Pass) IsMain() bool { return p.Pkg.Name() == "main" }

// Run applies every analyzer to every package, drops diagnostics the
// source suppresses with //rfvet:allow comments, and returns the rest
// sorted by position then analyzer name. It is the engine behind both
// cmd/rfvet and the analysistest harness.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	return RunWith(Options{}, analyzers, pkgs)
}

// RunWith is Run with explicit options.
func RunWith(opts Options, analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow, issues := collectAllows(pkg.Fset, pkg.Files)
		for _, is := range issues {
			switch is.kind {
			case "bare":
				diags = append(diags, Diagnostic{
					Pos:      is.pos,
					Analyzer: allowAnalyzerName,
					Message:  "bare " + allowMarker + " names no analyzer and suppresses nothing: list the analyzers (or \"all\")",
				})
			case "nojust":
				if opts.RequireJustification {
					diags = append(diags, Diagnostic{
						Pos:      is.pos,
						Analyzer: allowAnalyzerName,
						Message:  allowMarker + " without a \"-- justification\" clause: record why the exemption is sound",
					})
				}
			}
		}
		for _, a := range analyzers {
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ModulePath: pkg.ModulePath,
				diags:      &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range raw {
				if e := allow.find(a.Name, d.Pos); e != nil {
					if opts.IncludeAllowed {
						d.Allowed = true
						d.AllowedBy = e.pos.String() + ": " + e.justification
						diags = append(diags, d)
					}
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders by file, line, column, then analyzer name.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
