package pipeline

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// fuzzParams keeps fuzz iterations cheap: 32 IF samples, 2 antennas,
// noiseless.
func fuzzParams() fmcw.Params {
	p := fmcw.DefaultParams()
	p.SampleRate = 32e3
	p.ChirpDuration = 1e-3 // 32 samples per chirp
	p.NumAntennas = 2
	p.NoiseStd = 0
	return p
}

// fuzzFrames synthesizes n tiny frames with one moving scatterer so every
// stage has real signal to chew on.
func fuzzFrames(n int) []*fmcw.Frame {
	p := fuzzParams()
	out := make([]*fmcw.Frame, n)
	for i := range out {
		t := float64(i) / p.FrameRate
		d := 3.0 - 0.5*t
		ret := fmcw.Return{Delay: 2 * d / fmcw.C, Amplitude: 1, AoA: math.Pi / 2}
		out[i] = fmcw.Synthesize(p, []fmcw.Return{ret}, t, nil)
	}
	return out
}

// fuzzStages decodes a stage chain from fuzz bytes: each byte selects one
// stage from a palette of every composable stage in the package, in any
// order, duplicates allowed. A fresh chain is built per call because stages
// hold cross-frame state; the buffer-producing stages share one set of
// pools, as in a real chain.
func fuzzStages(order []byte, array fmcw.Array) []Stage {
	p := fuzzParams()
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), p)
	pools := NewPools(p)
	var stages []Stage
	for _, b := range order {
		switch b % 8 {
		case 0, 1, 2: // background-subtract, range-angle, peak-extract
			stages = append(stages, FrontEndStagesPlanned(plan, array, pools)[b%8])
		case 3:
			stages = append(stages, NewTrack(radar.TrackerConfig{}))
		case 4:
			stages = append(stages, NewDopplerPlanned(plan, 3, 0, pools.Doppler))
		case 5:
			stages = append(stages, NewBreathingPhase(radar.BreathingExtractor{}, 2))
		case 6:
			stages = append(stages, &profileCopies{})
		case 7:
			stages = append(stages, NewTrackWithVelocity(radar.TrackerConfig{}, array))
		}
		if len(stages) == 8 {
			break
		}
	}
	return stages
}

// FuzzStageComposition drives random stage orderings and frame counts
// through Run: any composition must complete without panics or deadlocks,
// deliver every frame, and be deterministic — two runs of the same
// composition over the same frames produce identical detection sequences.
// Run with
//
//	go test -fuzz FuzzStageComposition -fuzztime 10s ./internal/pipeline
//
// for a bounded CI exploration; the seed corpus below runs on every plain
// `go test`.
func FuzzStageComposition(f *testing.F) {
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(5), []byte{0, 1, 2, 3})
	f.Add(uint8(7), []byte{0, 1, 2, 4, 7})
	f.Add(uint8(9), []byte{4, 4, 0, 5})
	f.Add(uint8(12), []byte{2, 1, 0, 3, 6})    // out-of-order front end
	f.Add(uint8(3), []byte{5, 5, 5})           // duplicate stateful stages
	f.Add(uint8(16), []byte{0, 1, 6, 2, 3, 4}) // every stage kind
	f.Add(uint8(0), []byte{0, 1, 2})           // zero frames
	f.Add(uint8(4), []byte{})                  // zero stages
	f.Add(uint8(20), []byte{7, 0, 1, 2, 4, 5}) // velocity chain
	f.Fuzz(func(t *testing.T, nFrames uint8, order []byte) {
		n := int(nFrames) % 21
		array := fmcw.Array{}
		frames := fuzzFrames(n)

		// live runs p on its own goroutine and fails the test if it has not
		// returned within the bound.
		live := func(ctx context.Context, p *Pipeline, what string) (int, error) {
			var got int
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				got, err = p.Run(ctx)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s pipeline deadlocked (frames=%d, order=%v)", what, n, order)
			}
			return got, err
		}
		run := func() (int, [][]radar.Detection, error) {
			dets := &detectionsCollector{}
			stages := append(fuzzStages(order, array), dets)
			got, err := live(context.Background(), New(fromFrames(frames), stages...), "uncanceled")
			return got, dets.dets, err
		}

		firstN, firstDets, firstErr := run()
		againN, againDets, againErr := run()
		if firstErr != nil || againErr != nil {
			t.Fatalf("pipeline errored: first %v, second %v", firstErr, againErr)
		}
		if firstN != n || againN != n {
			t.Fatalf("dropped frames: first %d, second %d, want %d", firstN, againN, n)
		}
		if !reflect.DeepEqual(firstDets, againDets) {
			t.Fatalf("repeated run's detections diverge (frames=%d, order=%v)", n, order)
		}

		// Mid-capture cancellation must also never deadlock: cancel at a
		// pseudo-random frame derived from the inputs.
		if n > 0 {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			after := rand.New(rand.NewSource(int64(n*31+len(order)))).Intn(n) + 1
			stages := append(fuzzStages(order, array), &cancelAfter{n: after, cancel: cancel})
			live(ctx, New(fromFrames(frames), stages...), "canceled") //nolint:errcheck // any ctx/nil outcome is fine; liveness is the property
		}
	})
}
