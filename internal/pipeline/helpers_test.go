package pipeline

import (
	"context"
	"io"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/radar"
)

// frameSlice is a Source replaying an already-captured frame slice.
type frameSlice struct {
	frames []*fmcw.Frame
	i      int
}

// fromFrames returns a Source replaying frames in order. The frames stay
// caller-owned, so a pipeline over it must not attach a frame pool.
func fromFrames(frames []*fmcw.Frame) Source {
	return &frameSlice{frames: frames}
}

func (s *frameSlice) Next(ctx context.Context) (*fmcw.Frame, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if s.i >= len(s.frames) {
		return nil, io.EOF
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}

// detectionsCollector is a stage keeping a copy of every per-frame
// detection set — one per background-subtracted frame, so len(frames)-1
// for a capture.
type detectionsCollector struct {
	dets [][]radar.Detection
}

func (s *detectionsCollector) Name() string { return "collect-detections" }

func (s *detectionsCollector) Process(ctx context.Context, it *Item) error {
	if it.HasDets {
		// The item's detection buffer is recycled with the item, so keep a
		// copy.
		s.dets = append(s.dets, append(make([]radar.Detection, 0, len(it.Detections)), it.Detections...))
	}
	return nil
}
