package pipeline

import (
	"context"
	"io"
	"testing"

	"rfprotect/internal/fmcw"
)

// loopSource replays one caller-owned frame n times without allocating —
// the minimal Source for isolating the pipeline machinery's own per-frame
// cost from synthesis and DSP.
type loopSource struct {
	f    *fmcw.Frame
	n, i int
}

func (s *loopSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if s.i >= s.n {
		return nil, io.EOF
	}
	s.i++
	return s.f, nil
}

func (s *loopSource) reset() { s.i = 0 }

// nopStage touches the item without retaining it.
type nopStage struct{ frames int }

func (s *nopStage) Name() string { return "nop" }
func (s *nopStage) Process(ctx context.Context, it *Item) error {
	s.frames++
	return nil
}

// TestRunItemFreeListAllocsPerRun pins the Item free list's contract: after
// warm-up, Run's per-frame machinery — source pull, Item checkout, stage
// dispatch, recycle, Item return — allocates exactly nothing. Before the
// free list, every frame allocated one Item; this test is the regression
// guard that keeps the steady-state frame path allocation-free end to end.
func TestRunItemFreeListAllocsPerRun(t *testing.T) {
	src := &loopSource{f: fmcw.NewFrame(fmcw.DefaultParams(), 0), n: 16}
	p := New(src, &nopStage{})
	// Warm-up: materialize the one steady-state Item.
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		src.reset()
		if _, err := p.Run(nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per 16-frame run, want exactly 0", allocs)
	}
}
