package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up from cold; the
// median is reported as setup_s.
const setupReps = 5

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setLatency reports a latency sample set (in ms) as the end-to-end latency
// metric: its 90th percentile. The host this benchmark was tuned on runs in
// fast spells of varying share; the median moved with that share by up to a
// third from run to run, the 90th percentile by under a tenth (README.md,
// "Steadiness").
func (r *report) setLatency(ms []float64) {
	r.set("latency_ms_p90", quantile(ms, 0.90), "ms")
}

// rateWindow is the window sustainedRate counts units in: long enough that
// one host stall of a few hundred ms does not decide a window.
const rateWindow = 2 * time.Second

// sustainedRate is the rate, in units/s, that a run held in nine of ten
// rateWindow windows: each unit counts toward a window by the share of its
// [start, end] interval inside it, and the 10th percentile of the windows'
// counts per second is returned. A trailing partial window is dropped.
func sustainedRate(units [][2]time.Duration) float64 {
	if len(units) == 0 {
		return 0
	}
	n := int(units[len(units)-1][1] / rateWindow)
	if n == 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, u := range units {
		d := float64(u[1] - u[0])
		if d <= 0 {
			continue
		}
		for w := int(u[0] / rateWindow); w < n && time.Duration(w)*rateWindow < u[1]; w++ {
			lo := max(u[0], time.Duration(w)*rateWindow)
			hi := min(u[1], time.Duration(w+1)*rateWindow)
			counts[w] += float64(hi-lo) / d
		}
	}
	return quantile(counts, 0.10) / rateWindow.Seconds()
}

// probeSetup times the workload's cold set-up setupReps times, each in a
// fresh process (this binary re-run with -probe), from the spawn until the
// child reports it is ready, and records the median as setup_s. It returns
// the median of the children's peak resident set sizes in MB.
func probeSetup(r *report, name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate benchmark binary: %w", err)
	}
	var secs, hwms []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "-probe", name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("start set-up probe: %w", err)
		}
		rd := bufio.NewReader(out)
		line, rerr := rd.ReadString('\n')
		ready := time.Since(start)
		rest, _ := io.ReadAll(rd)
		werr := cmd.Wait()
		hwm, perr := strconv.ParseFloat(strings.TrimSpace(string(rest)), 64)
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil || perr != nil {
			return 0, fmt.Errorf("set-up probe %s failed: %q %v %v %v", name, line, rerr, werr, perr)
		}
		secs = append(secs, ready.Seconds())
		hwms = append(hwms, hwm)
	}
	r.set("setup_s", median(secs), "s")
	return median(hwms), nil
}

// vmHWM reads a process's peak resident set size in MB from /proc ("self"
// for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// memSnap is the slice of runtime.MemStats the runtime.* metrics use.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// add accumulates the work done between snapshots a and b.
func (m *memSnap) add(a, b memSnap) {
	m.mallocs += b.mallocs - a.mallocs
	m.bytes += b.bytes - a.bytes
	m.gcs += b.gcs - a.gcs
}

// setRuntime reports accumulated allocation and GC work per timed unit.
func (r *report) setRuntime(m memSnap, units int) {
	n := float64(units)
	r.set("runtime.allocs_per_unit", float64(m.mallocs)/n, "count")
	r.set("runtime.alloc_mb_per_unit", float64(m.bytes)/n/1e6, "MB")
	r.set("runtime.gc_cycles_per_unit", float64(m.gcs)/n, "count")
}

// setAbsent reports layer metrics of layers the workload does not pass
// through: their work on this workload is zero. The unit is the declared one.
func (r *report) setAbsent(names ...string) {
	for _, n := range names {
		r.set(n, 0, "")
	}
}

// serviceLayers are the daemon-side layer metrics, measured only in
// session's traced run.
var serviceLayers = []string{
	"service.latency_ms_p50", "service.latency_ms_p90", "service.post_ms_p50", "service.post_ms_p90", "service.frame_bytes", "service.event_bytes",
	"service.cpu_ms_per_frame", "service.allocs_per_frame", "service.queue_depth_max",
	"service.frames_dropped", "service.events_dropped", "loadgen.late_ms_max",
}
