package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"rfprotect/internal/parallel"
)

// Runner executes one named experiment and prints its report to w. The ctx
// cancels long captures cooperatively: runners return ctx.Err() once it is
// done (a nil ctx never cancels).
type Runner func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error

// Registry maps experiment names (fig7, fig9, ..., table1) to runners.
var Registry = map[string]Runner{
	"fig7": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		Fig7().Print(w)
		return nil
	},
	"fig9": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := Fig9Ctx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"fig10": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := Fig10Ctx(ctx, sz, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"fig11": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := Fig11Ctx(ctx, sz, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"fig12": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		Fig12(sz, seed).Print(w)
		return nil
	},
	"table1": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		Table1(sz, seed).Print(w)
		return nil
	},
	"fig13": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := Fig13Ctx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"fig14": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := Fig14Ctx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"ablation": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := AblationCtx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"probe": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := ProbeCtx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"floorplan": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		r, err := FloorPlan(sz, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"multiradar": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := MultiRadarCtx(ctx, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
	"armsrace": func(ctx context.Context, sz Sizes, seed int64, w io.Writer) error {
		r, err := ArmsRaceCtx(ctx, sz, seed)
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	},
}

// ctxErr is ctx.Err() tolerating a nil ctx, which never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Names returns the registered experiment names in order.
func Names() []string {
	var out []string
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ganBacked marks the experiments that draw from the shared cached
// trainer's internal RNG (TrainedGAN + Trainer.Sample). The "all" sweep
// keeps these in their sequential relative order on a single pool task so
// the trainer's RNG stream — and therefore every report — stays identical
// to a fully sequential sweep.
var ganBacked = map[string]bool{
	"fig10":     true,
	"fig11":     true,
	"fig12":     true,
	"floorplan": true,
	"table1":    true,
}

// RunCtx executes one experiment by name, or all of them for name == "all",
// stopping early with ctx.Err() once ctx is done.
//
// The "all" sweep runs experiments concurrently through a shared bounded
// pool: each experiment renders into its own buffer, and buffers are
// flushed to w in name order, so the combined report is byte-identical to a
// sequential sweep. GAN-backed experiments (see ganBacked) run in order on
// one task; every other experiment overlaps freely. A done ctx stops the
// sweep cooperatively — no new experiments start, in-flight captures
// return early — and RunCtx returns only after every worker has joined, so
// no experiment goroutine outlives the call.
func RunCtx(ctx context.Context, name string, sz Sizes, seed int64, w io.Writer) error {
	if name == "all" {
		names := Names()
		bufs := make([]bytes.Buffer, len(names))
		errs := make([]error, len(names))
		g := parallel.NewGroup(0)
		g.GoCtx(ctx, func() error {
			for i, n := range names {
				if ganBacked[n] {
					errs[i] = Registry[n](ctx, sz, seed, &bufs[i])
				}
			}
			return nil
		})
		for i, n := range names {
			if ganBacked[n] {
				continue
			}
			i, n := i, n
			g.GoCtx(ctx, func() error {
				errs[i] = Registry[n](ctx, sz, seed, &bufs[i])
				return nil
			})
		}
		// Wait joins every worker; its error surfaces tasks the pool skipped
		// because ctx was already done.
		if err := g.Wait(); err != nil {
			return err
		}
		for i, n := range names {
			if errs[i] != nil {
				return fmt.Errorf("%s: %w", n, errs[i])
			}
			fmt.Fprintf(w, "==== %s ====\n", n)
			if _, err := bufs[i].WriteTo(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (have %v)", name, Names())
	}
	return r(ctx, sz, seed, w)
}
