// Package pipeline runs the scene→fmcw→radar→tracker chain as a streaming
// pipeline: a Source emits one *fmcw.Frame at a time and a chain of
// composable Stages processes each frame before the next is synthesized, so
// a capture of any length runs with O(1) frames in flight (plus the one
// frame of background-subtraction history inside the subtract stage). A
// context.Context threads through the source and every stage, so a capture
// can be canceled or timed out mid-stream.
//
// FrontEndStagesPlanned is the one eavesdropper front end: every
// experiment, the CLI, the examples and the daemon run it over a plan from
// radar.PlanFrontEnd. Its output is bit-identical to the per-frame
// reference — Frame.Sub, then Processor.RangeAngle and Processor.Detect on
// fresh buffers — for any worker count, which the golden tests in this
// package enforce. DESIGN.md ("Streaming pipeline") documents the stage
// graph and cancellation semantics.
//
// # Steady-state allocation
//
// The chain draws every buffer (frames, diffs, profiles, Doppler maps) from
// Pools and the pipeline recycles them once an item completes, reusing its
// one Item record for the next frame, so the steady-state frame path of Run
// allocates exactly nothing (enforced by an AllocsPerRun test). Buffer
// ownership follows DESIGN.md "Buffer ownership & pooling": the pipeline
// recycles after an item's last stage, error-path buffers fall to the GC,
// and a stage that keeps a buffer or the detections past its Process call
// copies them.
//
// A typical assembly:
//
//	pools := pipeline.NewPools(sc.Params)
//	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
//	trk := pipeline.NewTrack(radar.TrackerConfig{})
//	stages := append(pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools), trk)
//	src := sc.Stream(0, nFrames, rng).UsePool(pools.Frames)
//	if _, err := pipeline.New(src, stages...).UsePools(pools).Run(ctx); err != nil { ... }
//	tracks := trk.Tracks()
package pipeline
