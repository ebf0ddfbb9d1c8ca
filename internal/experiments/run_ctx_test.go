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

// TestRegistryRunnersHonorCanceledCtx: every registered runner, handed a
// ctx that is already done, returns context.Canceled without doing the
// experiment's work — in particular without training a cGAN first. The
// seed is one no other test uses, so a runner that trained would leave the
// TrainedGAN cache keyed to it.
func TestRegistryRunnersHonorCanceledCtx(t *testing.T) {
	const seed = 16016
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cacheKey := func() any {
		sharedMu.Lock()
		defer sharedMu.Unlock()
		return sharedKey
	}
	before := cacheKey()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if err := Registry[name](ctx, Quick(), seed, io.Discard); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s runner = %v, want context.Canceled", name, err)
			}
			if after := cacheKey(); after != before {
				t.Fatalf("%s trained a cGAN under a canceled ctx: cache key %+v -> %+v", name, before, after)
			}
		})
	}
}
