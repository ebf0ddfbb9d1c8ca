package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolCheck enforces the buffer-ownership contract from DESIGN.md: a
// checkout from a free list (FramePool.Get, ProfilePool.Get,
// DopplerPool.Get) must, inside the acquiring function, either reach a
// matching Put on every non-error path or be handed off through a
// documented ownership-transfer point (returned, stored into a struct
// field, passed to another function, sent on a channel). On top of the
// leak check it flags the two misuse classes the contract comments cannot
// catch: touching a buffer after it went back to the pool, and capturing a
// pooled buffer in a goroutine closure (the pool may hand it to another
// frame while the goroutine still reads it).
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc: "pooled buffers must reach Put on all non-error paths or be handed off; " +
		"no use-after-Put; no pooled buffer captured by a goroutine",
	Run: runPoolCheck,
}

// poolState is the per-variable dataflow fact, merged by union across
// paths. A variable is reported as leaked only when it is exactly Owned at
// a success exit, and as used-after-Put only when it is exactly Released —
// any ambiguity (a transfer on one branch, an untouched path on another)
// keeps the analyzer quiet, matching the repo's "annotate the weird case,
// never cry wolf" rfvet policy.
type poolState uint8

const (
	poolOwned poolState = 1 << iota
	poolReleased
	poolTransferred
)

type poolStates map[*types.Var]poolState

func clonePoolStates(m poolStates) poolStates {
	out := make(poolStates, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergePoolStates(a, b poolStates) poolStates {
	out := clonePoolStates(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func equalPoolStates(a, b poolStates) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runPoolCheck(pass *Pass) error {
	if pass.IsMain() {
		// Commands (cmd/bench in particular) drive pools in benchmark
		// loops where the checkout/return pairing spans helper calls;
		// the contract is a library-code contract.
		return nil
	}
	for _, f := range pass.Files {
		funcsOf(f, func(node ast.Node, body *ast.BlockStmt) {
			pc := &poolChecker{pass: pass, sig: funcNodeSig(pass.TypesInfo, node)}
			pc.check(body)
		})
	}
	return nil
}

type poolChecker struct {
	pass *Pass
	sig  *types.Signature

	acquires   map[*ast.AssignStmt]*types.Var
	acquirePos map[*types.Var]token.Pos
	reported   map[string]bool
}

// funcNodeSig resolves the signature of a FuncDecl or FuncLit.
func funcNodeSig(info *types.Info, node ast.Node) *types.Signature {
	switch n := node.(type) {
	case *ast.FuncDecl:
		if fn, ok := info.Defs[n.Name].(*types.Func); ok {
			return funcSig(fn)
		}
	case *ast.FuncLit:
		if sig, ok := info.TypeOf(n).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

func (pc *poolChecker) check(body *ast.BlockStmt) {
	pc.collectAcquires(body)
	if len(pc.acquires) == 0 {
		return
	}
	g := buildCFG(body, pc.pass.TypesInfo)
	if g.unanalyzable {
		// goto or an unmodeled statement: a wrong graph would report
		// wrong paths, so skip the function entirely.
		return
	}
	pc.reported = map[string]bool{}

	in := dataflow(g, poolStates{},
		func(blk *cfgBlock, st poolStates) poolStates {
			out := clonePoolStates(st)
			pc.processBlock(blk, out, false)
			return out
		},
		mergePoolStates, equalPoolStates)

	// Second pass: replay each reachable block once from its fixpoint
	// entry state and emit diagnostics.
	for _, blk := range g.blocks {
		st, ok := in[blk]
		if !ok || blk == g.exit {
			continue
		}
		out := clonePoolStates(st)
		pc.processBlock(blk, out, true)
		if blk.retStmt == nil && !blk.panics && hasSucc(blk, g.exit) {
			pc.checkLeaks(out) // fall off the end of the function
		}
	}
}

func hasSucc(blk, target *cfgBlock) bool {
	for _, s := range blk.succs {
		if s == target {
			return true
		}
	}
	return false
}

// collectAcquires records every `x := pool.Get(...)` style assignment in
// the body, excluding nested function literals (they are analyzed as their
// own units).
func (pc *poolChecker) collectAcquires(body *ast.BlockStmt) {
	pc.acquires = map[*ast.AssignStmt]*types.Var{}
	pc.acquirePos = map[*types.Var]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !pc.isAcquireCall(call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pc.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pc.pass.TypesInfo.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			pc.acquires[as] = v
			if _, seen := pc.acquirePos[v]; !seen {
				pc.acquirePos[v] = id.Pos()
			}
		}
		return true
	})
}

// isAcquireCall reports whether the call checks a buffer out of a
// first-party free list: a Get* method on a *Pool type.
func (pc *poolChecker) isAcquireCall(call *ast.CallExpr) bool {
	fn := calleeFunc(pc.pass.TypesInfo, call)
	if !firstParty(fn, pc.pass.ModulePath) {
		return false
	}
	recv := funcSig(fn).Recv()
	if recv == nil {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Get") && strings.HasSuffix(namedTypeName(recv.Type()), "Pool")
}

// isReleaseCall reports whether the call returns its pooled argument to a
// free list. recycle/Recycle are deliberately NOT here: in the pipeline
// contract recycle(it) releases the item's *buffers* while the item itself
// stays owned, so it is classified as a hand-off, not a release of the
// argument.
func (pc *poolChecker) isReleaseCall(call *ast.CallExpr) bool {
	fn := calleeFunc(pc.pass.TypesInfo, call)
	if !firstParty(fn, pc.pass.ModulePath) {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "put") ||
		strings.HasPrefix(name, "Release") || strings.HasPrefix(name, "release") ||
		strings.HasPrefix(name, "Free") || strings.HasPrefix(name, "free")
}

// namedTypeName returns the name of t's named type, through one pointer.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// processBlock replays the nodes of one block over st, reporting
// diagnostics when report is set. It is used both as the (silent) transfer
// function of the fixpoint and as the (reporting) final replay.
func (pc *poolChecker) processBlock(blk *cfgBlock, st poolStates, report bool) {
	for _, n := range blk.nodes {
		if as, ok := n.(*ast.AssignStmt); ok {
			if v, isAcq := pc.acquires[as]; isAcq {
				// Classify the call's own subexpressions first (the
				// receiver chain may mention other tracked vars), then
				// grant ownership.
				pc.classify(as.Rhs[0], st, report)
				st[v] = poolOwned
				continue
			}
		}
		pc.classify(n, st, report)
		if ret, ok := n.(*ast.ReturnStmt); ok && report {
			if !pc.isErrorReturn(ret) {
				pc.checkLeaks(st)
			}
		}
	}
}

// classify walks one block node and updates the state of every tracked
// variable it mentions according to how the mention uses it.
func (pc *poolChecker) classify(n ast.Node, st poolStates, report bool) {
	info := pc.pass.TypesInfo
	inspectWithStack(n, func(node ast.Node, stack []ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			pc.classifyCapture(lit, stack, st, report)
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := st[v]; !tracked {
			if _, acq := pc.acquirePos[v]; !acq {
				return true
			}
			// Mention of a tracked var on a path where it was never
			// acquired (e.g. before the acquire in an earlier block
			// ordering artifact): treat as untracked here.
			return true
		}
		pc.classifyIdent(id, stack, v, st, report)
		return true
	})
}

// classifyCapture handles a function literal that closes over tracked
// variables: under a `go` statement that is the goroutine-escape hazard;
// anywhere else it is an ownership hand-off (e.g. a deferred Put).
func (pc *poolChecker) classifyCapture(lit *ast.FuncLit, stack []ast.Node, st poolStates, report bool) {
	underGo := false
	for _, anc := range stack {
		if _, ok := anc.(*ast.GoStmt); ok {
			underGo = true
			break
		}
	}
	info := pc.pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := st[v]; !tracked {
			return true
		}
		if underGo {
			if report && !pc.reported["go:"+v.Name()] {
				pc.reported["go:"+v.Name()] = true
				pc.pass.Reportf(id.Pos(),
					"pooled buffer %s captured by goroutine closure: the pool may reuse it while the goroutine still holds it",
					v.Name())
			}
		}
		st[v] |= poolTransferred
		return true
	})
}

// classifyIdent updates state for one direct mention of a tracked var.
func (pc *poolChecker) classifyIdent(id *ast.Ident, stack []ast.Node, v *types.Var, st poolStates, report bool) {
	// stack ends with id itself; parent is the node above it.
	var parent ast.Node
	if len(stack) >= 2 {
		parent = stack[len(stack)-2]
	}
	underGo := false
	for _, anc := range stack {
		if _, ok := anc.(*ast.GoStmt); ok {
			underGo = true
		}
	}

	switch p := parent.(type) {
	case *ast.CallExpr:
		isArg := false
		for _, a := range p.Args {
			if a == id {
				isArg = true
				break
			}
		}
		if !isArg {
			// The ident is (part of) the callee expression; treated by
			// the SelectorExpr case when it is a receiver.
			return
		}
		if underGo {
			if report && !pc.reported["go:"+v.Name()] {
				pc.reported["go:"+v.Name()] = true
				pc.pass.Reportf(id.Pos(),
					"pooled buffer %s passed to a goroutine: the pool may reuse it while the goroutine still holds it",
					v.Name())
			}
			st[v] |= poolTransferred
			return
		}
		if pc.isReleaseCall(p) {
			if underDefer(stack) {
				// A deferred Put runs at function exit on every path:
				// ownership is satisfied, and uses between here and the
				// exit are still legal.
				st[v] |= poolTransferred
				return
			}
			if report && st[v] == poolReleased && !pc.reported["dbl:"+posKey(pc.pass, id.Pos())] {
				pc.reported["dbl:"+posKey(pc.pass, id.Pos())] = true
				pc.pass.Reportf(id.Pos(), "pooled buffer %s returned to the pool twice", v.Name())
			}
			st[v] = poolReleased
			return
		}
		pc.reportUseAfterPut(id, v, st, report)
		st[v] |= poolTransferred

	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		st[v] |= poolTransferred

	case *ast.UnaryExpr:
		if p.Op == token.AND {
			st[v] |= poolTransferred
		} else {
			pc.reportUseAfterPut(id, v, st, report)
		}

	case *ast.SendStmt:
		if p.Value == id {
			st[v] |= poolTransferred
		} else {
			pc.reportUseAfterPut(id, v, st, report)
		}

	case *ast.AssignStmt:
		onLHS := false
		for _, l := range p.Lhs {
			if l == id {
				onLHS = true
				break
			}
		}
		if onLHS {
			// Overwritten: whatever it pointed at is out of this
			// function's hands.
			delete(st, v)
			return
		}
		// RHS alias (y := x) or field store (s.f = x): a hand-off.
		st[v] |= poolTransferred

	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.BinaryExpr,
		*ast.SliceExpr, *ast.TypeAssertExpr, *ast.RangeStmt, *ast.ExprStmt,
		*ast.CaseClause, *ast.IncDecStmt:
		pc.reportUseAfterPut(id, v, st, report)

	default:
		// Unknown context: assume a hand-off so unfamiliar shapes never
		// produce a false leak.
		st[v] |= poolTransferred
	}
}

func underDefer(stack []ast.Node) bool {
	for _, anc := range stack {
		if _, ok := anc.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

func (pc *poolChecker) reportUseAfterPut(id *ast.Ident, v *types.Var, st poolStates, report bool) {
	if report && st[v] == poolReleased && !pc.reported["uap:"+posKey(pc.pass, id.Pos())] {
		pc.reported["uap:"+posKey(pc.pass, id.Pos())] = true
		pc.pass.Reportf(id.Pos(), "use of pooled buffer %s after it was returned to the pool", v.Name())
	}
}

// checkLeaks reports every variable that is exactly Owned (never released,
// never handed off on this path) at a success exit. One report per acquire
// site, at the acquire.
func (pc *poolChecker) checkLeaks(st poolStates) {
	for v, s := range st {
		if s != poolOwned {
			continue
		}
		pos := pc.acquirePos[v]
		key := "leak:" + posKey(pc.pass, pos)
		if pc.reported[key] {
			continue
		}
		pc.reported[key] = true
		pc.pass.Reportf(pos,
			"pooled buffer %s is never returned: every non-error path must Put it back or hand it off",
			v.Name())
	}
}

// isErrorReturn reports whether ret leaves the function with a non-nil
// error. Error paths are exempt from the leak check: the pipeline contract
// deliberately lets error-path buffers fall to the GC (DESIGN.md). Bare
// returns with named results and `return f()` forwards are treated as
// error returns — the safe, quiet direction.
func (pc *poolChecker) isErrorReturn(ret *ast.ReturnStmt) bool {
	if pc.sig == nil {
		return true
	}
	res := pc.sig.Results()
	var errIdx []int
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return false
	}
	if len(ret.Results) != res.Len() {
		return true
	}
	for _, i := range errIdx {
		id, ok := ast.Unparen(ret.Results[i]).(*ast.Ident)
		if !ok || id.Name != "nil" {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

func posKey(pass *Pass, pos token.Pos) string {
	return pass.Fset.Position(pos).String()
}
