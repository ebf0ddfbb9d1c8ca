// Package ctxflow is the golden fixture for the ctxflow analyzer:
// synthesized roots with and without a received ctx, bare calls shadowing
// a *Ctx sibling (function and method form), nil-ctx handoffs, and the
// annotated legacy-wrapper pattern.
package ctxflow

import "context"

// Work is the bare variant of a function pair.
func Work() {}

// WorkCtx is Work's context-threading sibling.
func WorkCtx(ctx context.Context) error { return ctx.Err() }

// runner carries the method form of the same pair.
type runner struct{}

func (runner) Step() {}

func (runner) StepCtx(ctx context.Context) error { return ctx.Err() }

// synth holds a ctx and synthesizes a fresh root anyway.
func synth(ctx context.Context) error {
	c := context.TODO() // want `already receives a ctx`
	_ = c
	return WorkCtx(ctx)
}

// bare holds a ctx but calls the context-free variant.
func bare(ctx context.Context) error {
	Work() // want `call WorkCtx`
	return WorkCtx(ctx)
}

// bareMethod is the method-form of bare.
func bareMethod(ctx context.Context, r runner) error {
	r.Step() // want `call StepCtx`
	return r.StepCtx(ctx)
}

// nilHandoff throws the received ctx away.
func nilHandoff(ctx context.Context) error {
	_ = ctx
	return WorkCtx(nil) // want `nil ctx`
}

// closure: a literal inside a ctx-bearing function is in ctx scope.
func closure(ctx context.Context) func() error {
	return func() error {
		return WorkCtx(context.Background()) // want `already receives a ctx`
	}
}

// root synthesizes a root in library code without receiving one.
func root() error {
	return WorkCtx(context.Background()) // want `library code`
}

// legacyRun is a compatibility wrapper that may synthesize a root because it
// is a documented context-free entry point.
func legacyRun() error {
	return WorkCtx(context.Background()) //rfvet:allow ctxflow -- fixture: legacy wrapper
}

// threaded is fully clean: the ctx flows to every capable callee.
func threaded(ctx context.Context, r runner) error {
	if err := WorkCtx(ctx); err != nil {
		return err
	}
	return r.StepCtx(ctx)
}
