package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the cancellation contract threaded through the stack in
// PR 3 (CHANGES.md): once a context enters a call chain it must flow to
// the leaves, and library code must never invent a fresh root context.
//
// Three rules:
//
//  1. A function that receives a context must not synthesize
//     context.Background() or context.TODO(): the received ctx (or a
//     context derived from it) is the only root in scope.
//  2. A function that receives a context must not call the context-free
//     variant of a first-party API whose *Ctx sibling exists (ForEach vs
//     ForEachCtx, ...): calling the bare variant silently detaches the
//     subtree from cancellation.
//  3. Outside package main and tests, context.Background()/TODO() is
//     forbidden everywhere: roots are created at the edges (main, signal
//     handlers) and passed down. A deliberate exception carries an
//     explicit //rfvet:allow ctxflow annotation with its justification.
//
// Passing a nil ctx while holding a real one is flagged for the same
// reason as rule 2: this module's nil-context idiom means "never cancel",
// which is exactly what a function that was handed a ctx must not assume.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "requires received contexts to be threaded to every *Ctx-capable callee " +
		"and forbids synthesizing context.Background()/TODO() in library code",
	Run: runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.TypesInfo, call)
			if fn == nil {
				return true
			}
			holdsCtx := ctxInScope(p.TypesInfo, stack)

			// Rules 1 and 3: synthesized roots.
			if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
				switch {
				case holdsCtx:
					p.Reportf(call.Pos(),
						"context.%s synthesized in a function that already receives a ctx; thread the received context instead",
						fn.Name())
				case !p.IsMain():
					p.Reportf(call.Pos(),
						"context.%s in library code; accept a ctx parameter from the caller (or annotate a legacy wrapper with //rfvet:allow ctxflow)",
						fn.Name())
				}
				return true
			}

			if !holdsCtx {
				return true
			}

			// Rule 2: bare call while a *Ctx sibling exists.
			sig := funcSig(fn)
			if sigContextParam(sig) < 0 && firstParty(fn, p.ModulePath) {
				if sib := ctxSibling(fn); sib != nil {
					p.Reportf(call.Pos(),
						"calls %s while holding a ctx; call %s to keep cancellation flowing",
						fn.Name(), sib.Name())
					return true
				}
			}

			// Nil-ctx handoff: dropping the received ctx on the floor.
			if i := sigContextParam(sig); i >= 0 && i < len(call.Args) {
				if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && id.Name == "nil" {
					if _, isNil := p.TypesInfo.Uses[id].(*types.Nil); isNil {
						p.Reportf(call.Args[i].Pos(),
							"passes a nil ctx to %s while holding a real one; thread the received context",
							fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// ctxInScope reports whether any function enclosing the current node —
// declaration or literal — declares a context.Context parameter.
func ctxInScope(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok &&
				sigContextParam(funcSig(obj)) >= 0 {
				return true
			}
		case *ast.FuncLit:
			if sig, ok := info.Types[fn].Type.(*types.Signature); ok &&
				sigContextParam(sig) >= 0 {
				return true
			}
		}
	}
	return false
}

// ctxSibling returns the context-accepting sibling of fn — the function or
// method named fn.Name()+"Ctx" in the same scope — or nil.
func ctxSibling(fn *types.Func) *types.Func {
	name := fn.Name() + "Ctx"
	var obj types.Object
	if recv := funcSig(fn).Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	sib, ok := obj.(*types.Func)
	if !ok || sigContextParam(funcSig(sib)) < 0 {
		return nil
	}
	return sib
}
