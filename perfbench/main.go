// Command perfbench is rfprotect's end-to-end benchmark. It runs one of
// two workloads from a seed, checks the workload's outputs, and prints one
// JSON result line: the end-to-end metrics by default, the per-layer metrics
// with -trace 1. Layers are timed only from outside, around calls into their
// public functions. See README.md for the workloads, the metrics and the
// layer-to-metric map; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // path of the rfprotectd binary (session's traced run)
	outDir   string // where traced runs write their spans
}

// gomaxprocs is the GOMAXPROCS both workloads, and their set-up probes, run
// with: one caller on one thread, the setting at which fig9 and session held
// steadiest on a 2-vCPU VM shared with other tenants.
const gomaxprocs = 1

// workload is one named benchmark input set.
type workload struct {
	// probe performs the workload's cold set-up in a fresh process (-probe):
	// everything up to and including the first timed unit.
	probe func(seed int64) error
	run   func(cfg config) (*report, error)
}

var workloads = map[string]workload{
	"fig9":    {probe: probeFig9, run: runFig9},
	"session": {probe: probeSession, run: runSession},
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's counts, checks and metrics.
type report struct {
	attempted, failed int
	problems          []string // output-check failures; any makes the run incorrect
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics it
// must print, with their units.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func main() {
	var cfg config
	var trace int
	var probe string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig9 or session")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "rfprotectd binary (session's traced run)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory traced runs write their spans to")
	flag.StringVar(&probe, "probe", "", "internal: run the named workload's cold set-up and exit")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1

	if probe != "" {
		w, ok := workloads[probe]
		if !ok {
			fatalf("no workload %q to probe", probe)
		}
		if err := w.probe(cfg.seed); err != nil {
			fatalf("probe %s: %v", probe, err)
		}
		fmt.Println("ready")
		hwm, err := vmHWM("self")
		if err != nil {
			fatalf("probe %s: %v", probe, err)
		}
		fmt.Println(hwm)
		return
	}

	sp, err := readSpec(*specPath)
	if err != nil {
		fatalf("read benchmark definition: %v", err)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(gomaxprocs)
	rep, err := w.run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	declared := sp.EndToEnd
	if cfg.trace {
		declared = sp.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, map[string]metric{}}
	for _, d := range declared {
		m, ok := rep.metrics[d.Name]
		switch {
		case !ok:
			fatalf("%s: metric %s was not measured", cfg.workload, d.Name)
		case m.Unit == "":
			m.Unit = d.Unit // a layer this workload does not pass through
		case m.Unit != d.Unit:
			fatalf("%s: metric %s measured in %s, declared in %s", cfg.workload, d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = m
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
