package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/pipeline"
)

// reconcileTol is the largest share of a traced chain's wall time by which
// the layers' self times plus the pipeline's own time may miss it.
const reconcileTol = 0.01

// span is one timed call into a layer. Times are nanoseconds on the
// recorder's monotonic clock.
type span struct {
	name       int32
	parent     int32 // index of the enclosing span, -1 at top level
	frame      int32
	start, end int64
}

// recorder keeps spans in memory for the length of a run. It is used from
// one goroutine: the chains it traces run pipeline.Run, which calls the
// source and every stage in sequence.
type recorder struct {
	epoch  time.Time
	ids    map[string]int32
	names  []string
	spans  []span
	runs   [][2]int64 // outside-clocked [start, end] of every traced Run
	frames int        // frames the traced Runs processed
	cur    int32      // innermost open span, -1 if none
	frame  int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), ids: map[string]int32{}, cur: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// id interns a layer name.
func (r *recorder) id(name string) int32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := int32(len(r.names))
	r.ids[name] = id
	r.names = append(r.names, name)
	return id
}

// begin opens a span nested in the innermost open one and returns its index.
func (r *recorder) begin(name int32) int32 {
	r.spans = append(r.spans, span{name: name, parent: r.cur, frame: r.frame, start: r.now()})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

func (r *recorder) end(i int32) {
	r.spans[i].end = r.now()
	r.cur = r.spans[i].parent
}

// layerOf names the layer a pipeline stage belongs to, by Stage.Name().
var layerOf = map[string]string{
	"background-subtract": "fmcw.subtract",
	"range-angle":         "radar.range_angle",
	"peak-extract":        "radar.peak_extract",
	"range-doppler":       "radar.range_doppler",
	"track":               "radar.track",
}

// tracedSource times every Next call as a scene.source span.
type tracedSource struct {
	src pipeline.Source
	rec *recorder
	id  int32
}

func (s *tracedSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	i := s.rec.begin(s.id)
	f, err := s.src.Next(ctx)
	s.rec.end(i)
	s.rec.frame++
	return f, err
}

// tracedStage times every Process call of the stage it wraps.
type tracedStage struct {
	st  pipeline.Stage
	rec *recorder
	id  int32
}

func (s *tracedStage) Name() string { return s.st.Name() }

func (s *tracedStage) Process(ctx context.Context, it *pipeline.Item) error {
	i := s.rec.begin(s.id)
	err := s.st.Process(ctx, it)
	s.rec.end(i)
	return err
}

// runChain drives src through stages with pipeline.Run, recycling buffers
// into pools, and returns the frames processed and the wall time. With a
// recorder, the source and every stage are wrapped in span decorators.
func runChain(src pipeline.Source, stages []pipeline.Stage, pools *pipeline.Pools, rec *recorder) (int, time.Duration, error) {
	if rec != nil {
		src = &tracedSource{src: src, rec: rec, id: rec.id("scene.source")}
		wrapped := make([]pipeline.Stage, len(stages))
		for i, st := range stages {
			layer, ok := layerOf[st.Name()]
			if !ok {
				layer = st.Name()
			}
			wrapped[i] = &tracedStage{st: st, rec: rec, id: rec.id(layer)}
		}
		stages = wrapped
	}
	p := pipeline.New(src, stages...).UsePools(pools)
	var t0 int64
	if rec != nil {
		rec.frame = 0
		t0 = rec.now()
	}
	start := time.Now()
	n, err := p.Run(context.Background())
	wall := time.Since(start)
	if rec != nil {
		rec.runs = append(rec.runs, [2]int64{t0, rec.now()})
		rec.frames += n
	}
	return n, wall, err
}

// layerTimes is a recorder's spans reduced to per-layer self time.
type layerTimes struct {
	self  map[string]int64 // layer → summed self time, ns
	gaps  int64            // time inside traced Runs covered by no span: the pipeline's own work
	wall  int64            // summed outside-clocked duration of the traced Runs
	units int              // frames the traced Runs processed
}

// totals computes every layer's self time (its spans' durations minus their
// children's) and the uncovered time between top-level spans, then checks
// that the two add up to the traced wall time within reconcileTol: spans
// that overlap, escape their parent or were left open fail the check.
func (r *recorder) totals() (layerTimes, error) {
	lt := layerTimes{self: map[string]int64{}, units: r.frames}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		if s.end < s.start {
			return lt, fmt.Errorf("span %s of frame %d was never closed", r.names[s.name], s.frame)
		}
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var sum int64
	for i, s := range r.spans {
		lt.self[r.names[s.name]] += self[i]
		sum += self[i]
	}
	// Spans were appended in call order, so each Run's top-level spans are
	// the ones starting inside it, in order.
	i := 0
	for _, run := range r.runs {
		lt.wall += run[1] - run[0]
		prev := run[0]
		for ; i < len(r.spans) && r.spans[i].start <= run[1]; i++ {
			s := r.spans[i]
			if s.parent >= 0 {
				continue
			}
			if s.start > prev {
				lt.gaps += s.start - prev
			}
			prev = s.end
		}
		if run[1] > prev {
			lt.gaps += run[1] - prev
		}
	}
	if lt.wall > 0 {
		if miss := math.Abs(float64(sum+lt.gaps-lt.wall)) / float64(lt.wall); miss > reconcileTol {
			return lt, fmt.Errorf("layers (%d ns) plus pipeline self time (%d ns) miss the traced wall (%d ns) by %.2f%% (tolerance %.0f%%)",
				sum, lt.gaps, lt.wall, 100*miss, 100*reconcileTol)
		}
	}
	return lt, nil
}

// usPerUnit is a layer's self time per frame in microseconds.
func (lt layerTimes) usPerUnit(layer string) float64 {
	if lt.units == 0 {
		return 0
	}
	return float64(lt.self[layer]) / float64(lt.units) / 1e3
}

// setChainLayers reports the per-frame self time of every chain layer and
// of the pipeline itself.
func (r *report) setChainLayers(lt layerTimes) {
	for _, l := range []string{"scene.source", "fmcw.subtract", "radar.range_angle", "radar.peak_extract",
		"radar.range_doppler", "radar.track", "detect.observe"} {
		r.set(l+"_us", lt.usPerUnit(l), "us")
	}
	r.set("pipeline.self_us", float64(lt.gaps)/float64(max(lt.units, 1))/1e3, "us")
}

// write saves the spans as a Chrome trace-event file (viewable in Perfetto
// or chrome://tracing).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"frame":%d}}`,
			r.names[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.frame)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans saves a traced run's spans under the output directory.
func writeSpans(cfg config, rec *recorder) {
	path := filepath.Join(cfg.outDir, "spans", cfg.workload+".json")
	if err := rec.write(path); err != nil {
		logf("write spans: %v", err)
		return
	}
	logf("%d spans written to %s", len(rec.spans), path)
}
