package experiments

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/reflector"
)

// TestRunCtxCanceledBeforeSweep: a pre-canceled ctx stops the "all" sweep
// before any experiment starts and returns the ctx error.
func TestRunCtxCanceledBeforeSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunCtx(ctx, "all", Quick(), 1, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
}

// TestAblationAmplitudeCapturesHonorCtx: the ablation's amplitude-control
// captures stop on a canceled ctx instead of synthesizing regardless.
func TestAblationAmplitudeCapturesHonorCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	params := fmcw.DefaultParams()
	if _, err := peakPowerOfHuman(ctx, params, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("peakPowerOfHuman = %v, want context.Canceled", err)
	}
	if _, err := peakPowerOfGhost(ctx, params, reflector.AmplitudeMatchHuman, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("peakPowerOfGhost = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidSweep cancels while an experiment's capture is in
// flight: RunCtx must return ctx.Err() promptly with every experiment
// worker joined (checked by the goroutine count settling back to the
// pre-sweep baseline).
func TestRunCtxCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	// fig9 captures ~180 paper-scale frames, far longer than the cancel
	// delay, so cancellation lands mid-capture deterministically.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := RunCtx(ctx, "fig9", Quick(), 1, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancellation took %v to propagate", time.Since(start))
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("experiment workers leaked: %d goroutines before, %d after", before, after)
	}
}

// TestRunCtxBackgroundMatchesRun: with a live ctx, RunCtx is Run — same
// report bytes for a cheap experiment.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	var a, b captureWriter
	if err := Run("fig7", Quick(), 1, &a); err != nil {
		t.Fatal(err)
	}
	if err := RunCtx(context.Background(), "fig7", Quick(), 1, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("RunCtx with a background ctx diverges from Run")
	}
}

type captureWriter struct{ buf []byte }

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *captureWriter) String() string { return string(w.buf) }
