package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/service"
)

// The daemon phase of session's traced run serves the session chain from an
// rfprotectd ingest room and watches it from outside: one radar's frames are
// POSTed over loopback HTTP at 20 fps on a fixed schedule, one keep-alive
// ingest connection and one NDJSON stream connection, and the room's events,
// /metrics, /v1/rooms/{id} and /proc are read back.

const (
	// daemonProcs is the GOMAXPROCS of the rfprotectd subprocess.
	daemonProcs = 2
	// ingestFps is one radar in real time.
	ingestFps = 20
)

// ingestFrames is the daemon phase's input: one loop of the scenario's
// capture, JSON-encoded once. Sending frame k replays frame k mod len with
// its time rewritten to k/FrameRate, so the room sees one seamless capture.
type ingestFrames struct {
	frames []*fmcw.Frame
	data   [][]byte // each frame's "data" array, JSON
}

func (in *ingestFrames) timeOf(k int) float64 { return float64(k) / fmcw.DefaultParams().FrameRate }

// body appends frame k's FrameSpec JSON to b.
func (in *ingestFrames) body(b []byte, k int) []byte {
	d := in.data[k%len(in.data)]
	b = append(b, `{"time":`...)
	b = strconv.AppendFloat(b, in.timeOf(k), 'g', -1, 64)
	b = append(b, `,"data":`...)
	b = append(b, d...)
	return append(b, '}')
}

func prepareIngest(sn scenario, pl plans) (*ingestFrames, *deployment, error) {
	d, err := deploy(sn, pl)
	if err != nil {
		return nil, nil, err
	}
	st := d.sc.Stream(0, loopFrames, rand.New(rand.NewSource(sn.seed)))
	in := &ingestFrames{}
	for {
		f, err := st.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		spec := make([][][2]float64, len(f.Data))
		for k, row := range f.Data {
			spec[k] = make([][2]float64, len(row))
			for i, v := range row {
				spec[k][i] = [2]float64{real(v), imag(v)}
			}
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		in.frames = append(in.frames, f)
		in.data = append(in.data, b)
	}
	return in, d, nil
}

// replaySource feeds the ingest sequence to a library chain, as the room's
// ingest queue feeds its pipeline.
type replaySource struct {
	in   *ingestFrames
	pool *fmcw.FramePool
	k, n int
}

func (s *replaySource) Next(context.Context) (*fmcw.Frame, error) {
	if s.k >= s.n {
		return nil, io.EOF
	}
	f := s.pool.Get(s.in.timeOf(s.k))
	src := s.in.frames[s.k%len(s.in.frames)]
	for a := range f.Data {
		copy(f.Data[a], src.Data[a])
	}
	s.k++
	return f, nil
}

// reference runs the first n frames of the ingest sequence through the
// session chain and returns the tracks the room must report after them.
func reference(in *ingestFrames, pl plans, d *deployment, n int) ([]service.TrackDump, error) {
	c := newChain(pl, d.sc.Radar, nil)
	if _, err := c.run(&replaySource{in: in, pool: c.pools.Frames, n: n}, n, time.Now(), nil); err != nil {
		return nil, err
	}
	return c.dumps(), nil
}

// daemonProc is a running rfprotectd subprocess.
type daemonProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  sync.WaitGroup
}

func startDaemon(bin string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rfprotectd: %w", err)
	}
	p := &daemonProc{cmd: cmd}
	addr := make(chan string, 1)
	p.out.Add(1)
	go func() {
		defer p.out.Done()
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				first = false
				f := strings.Fields(sc.Text()) // rfprotectd listening on http://ADDR (N shards)
				a := ""
				if len(f) >= 4 {
					a = f[3]
				}
				addr <- a
			}
		}
		if first {
			addr <- ""
		}
	}()
	select {
	case a := <-addr:
		if !strings.HasPrefix(a, "http://") {
			_ = p.stop()
			return nil, fmt.Errorf("rfprotectd did not report its address")
		}
		p.base = a
	case <-time.After(10 * time.Second):
		_ = p.stop()
		return nil, fmt.Errorf("rfprotectd did not start within 10 s")
	}
	return p, nil
}

// stop drains the daemon with SIGTERM, kills it after 10 s, and waits for
// it to exit. It reports a non-zero exit.
func (p *daemonProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { p.out.Wait(); done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("rfprotectd did not drain within 10 s")
	}
}

// client talks to one daemon: ingest and control requests share one
// keep-alive connection, the event stream has its own.
type client struct {
	base   string
	http   *http.Client
	stream *http.Client
}

func newClient(base string) *client {
	tr := func() *http.Transport {
		return &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	return &client{base: base, http: &http.Client{Transport: tr()}, stream: &http.Client{Transport: tr()}}
}

func (c *client) close() {
	c.http.CloseIdleConnections()
	c.stream.CloseIdleConnections()
}

// do sends a request and decodes a JSON reply into out (if non-nil). It
// returns the status code.
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) mustDo(method, path string, body []byte, out any, want int) error {
	code, err := c.do(method, path, body, out)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, code, want)
	}
	return nil
}

// streamEvent is the part of a stream event the generator reads.
type streamEvent struct {
	Frame int    `json:"frame"`
	Final bool   `json:"final"`
	Error string `json:"error"`
}

// eventStream reads a room's NDJSON stream on its own goroutine, stamping
// each event's arrival.
type eventStream struct {
	base     time.Time
	arrival  []atomic.Int64 // ns since base, by frame index; 0 = not arrived
	received atomic.Int64
	bytes    atomic.Int64
	mu       sync.Mutex
	problems []string
	final    *streamEvent
	done     chan struct{}
	body     io.ReadCloser
}

func (c *client) openStream(room string, frames int, base time.Time) (*eventStream, error) {
	resp, err := c.stream.Get(c.base + "/v1/rooms/" + room + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream %s: status %d", room, resp.StatusCode)
	}
	es := &eventStream{base: base, arrival: make([]atomic.Int64, frames), done: make(chan struct{}), body: resp.Body}
	go es.read()
	return es, nil
}

func (es *eventStream) problem(format string, args ...any) {
	es.mu.Lock()
	es.problems = append(es.problems, fmt.Sprintf(format, args...))
	es.mu.Unlock()
}

func (es *eventStream) read() {
	defer close(es.done)
	defer es.body.Close()
	rd := bufio.NewReaderSize(es.body, 1<<16)
	next := 0
	for {
		line, err := rd.ReadBytes('\n')
		at := time.Since(es.base)
		if len(line) > 0 {
			var ev streamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				es.problem("undecodable stream line: %v", jerr)
				return
			}
			switch {
			case es.final != nil:
				es.problem("event after the final event")
			case ev.Final:
				es.final = &ev
			case ev.Frame < next || ev.Frame >= len(es.arrival):
				es.problem("event for frame %d out of order (next expected %d)", ev.Frame, next)
			default:
				es.bytes.Add(int64(len(line)))
				es.arrival[ev.Frame].Store(int64(at))
				next = ev.Frame + 1
				es.received.Add(1)
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			es.problem("stream read: %v", err)
			return
		}
	}
}

// scrapeMetrics sums each rfprotect_* series of /metrics over its shards.
func (c *client) scrapeMetrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// cpuTicks reads a process's user+system CPU time in clock ticks (1/100 s)
// from /proc/<pid>/stat.
func cpuTicks(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + st, nil
}

func roomJSON(id string) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"doppler_window":%d}`, id, dopplerWindow))
}

// measureDaemon runs the daemon phase for the given time and records the
// service.* and loadgen.* layer metrics. Each frame is timed from its
// scheduled send to its event's arrival, less any delay the generator
// itself added in starting the send: it sends at the scheduled time or
// when the previous POST returns, whichever is later. Checks: every frame
// is accepted and yields exactly one event, in order; the stream ends with
// a final event for the last frame; the room's /tracks equal, bit for bit,
// the session chain's over the same frames; rfprotectd exits 0 on SIGTERM.
func measureDaemon(cfg config, r *report, pl plans, seconds float64) error {
	if cfg.daemon == "" {
		return fmt.Errorf("-daemon (the rfprotectd binary) is required")
	}
	n := max(int(ingestFps*seconds), 20)
	in, d, err := prepareIngest(newScenario(cfg.seed, loopFrames), pl)
	if err != nil {
		return err
	}
	want, err := reference(in, pl, d, n)
	if err != nil {
		return fmt.Errorf("reference chain: %w", err)
	}
	in.frames = nil // only the encoded frames are sent

	p, err := startDaemon(cfg.daemon)
	if err != nil {
		return err
	}
	c := newClient(p.base)
	err = drive(r, p, c, in, n, want)
	c.close()
	if serr := p.stop(); serr != nil {
		r.problem("rfprotectd did not exit cleanly: %v", serr)
	}
	return err
}

// drive sends n frames to a fresh ingest room of the running daemon and
// checks what comes back.
func drive(r *report, p *daemonProc, c *client, in *ingestFrames, n int, want []service.TrackDump) error {
	pid := p.cmd.Process.Pid
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if code, err := c.do("GET", "/healthz", nil, nil); err == nil && code == http.StatusOK {
			break
		} else if time.Since(start) > 10*time.Second {
			return fmt.Errorf("rfprotectd not healthy within 10 s: %v", err)
		}
	}
	if err := c.mustDo("POST", "/v1/rooms", roomJSON("bench"), nil, http.StatusCreated); err != nil {
		return err
	}
	base := time.Now()
	es, err := c.openStream("bench", n, base)
	if err != nil {
		return err
	}
	m0, err := c.scrapeMetrics()
	if err != nil {
		return err
	}
	cpu0, err := cpuTicks(pid)
	if err != nil {
		return err
	}

	// Sample the queue depth while the frames go in.
	var qmax atomic.Int64
	stopPoll := make(chan struct{})
	var polls sync.WaitGroup
	polls.Add(1)
	go func() {
		defer polls.Done()
		poller := newClient(c.base)
		defer poller.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			var st service.RoomStatus
			if _, err := poller.do("GET", "/v1/rooms/bench", nil, &st); err == nil && int64(st.QueueDepth) > qmax.Load() {
				qmax.Store(int64(st.QueueDepth))
			}
		}
	}()

	sched := make([]time.Duration, n) // scheduled send, since base
	lateMs := make([]float64, n)      // delay the generator itself added to each send
	var postMs []float64
	var body []byte
	bodyBytes, accepted := 0, 0
	var prevDone time.Duration
	for k := 0; k < n; k++ {
		sched[k] = time.Duration(float64(k) / ingestFps * float64(time.Second))
		if wait := sched[k] - time.Since(base); wait > 0 {
			time.Sleep(wait)
		}
		began := time.Since(base)
		lateMs[k] = float64(began-max(sched[k], prevDone)) / 1e6
		// The daemon reads the whole body before it replies, so the buffer
		// is free again once the reply is in.
		body = in.body(body[:0], k)
		bodyBytes += len(body)
		code, err := c.do("POST", "/v1/rooms/bench/frames", body, nil)
		prevDone = time.Since(base)
		postMs = append(postMs, float64(prevDone-began)/1e6)
		if err != nil || code != http.StatusOK {
			r.problem("daemon: frame %d: status %d, %v", k, code, err)
			continue
		}
		accepted++
	}
	for deadline := time.Now().Add(10 * time.Second); int(es.received.Load()) < accepted && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stopPoll)
	polls.Wait()

	var latMs []float64
	for k := 0; k < n; k++ {
		if at := time.Duration(es.arrival[k].Load()); at > 0 {
			latMs = append(latMs, float64(at-sched[k])/1e6-lateMs[k])
		}
	}
	if len(latMs) != n {
		r.problem("daemon: %d of %d frames got no event", n-len(latMs), n)
	}

	// The room's tracks must equal the library chain's over the same frames.
	var tracks struct {
		Tracks []service.TrackDump `json:"tracks"`
	}
	if err := c.mustDo("GET", "/v1/rooms/bench/tracks", nil, &tracks, http.StatusOK); err != nil {
		return err
	}
	if !reflect.DeepEqual(tracks.Tracks, want) {
		r.problem("daemon: room tracks after %d frames differ from the session chain's over the same frames", n)
	}
	m1, err := c.scrapeMetrics()
	if err != nil {
		return err
	}
	cpu1, err := cpuTicks(pid)
	if err != nil {
		return err
	}
	if err := c.mustDo("DELETE", "/v1/rooms/bench", nil, nil, http.StatusOK); err != nil {
		return err
	}
	select {
	case <-es.done:
	case <-time.After(10 * time.Second):
		r.problem("daemon: event stream did not end after the room closed")
		es.body.Close()
		<-es.done
	}
	es.mu.Lock()
	for _, pr := range es.problems {
		r.problem("daemon: event stream: %s", pr)
	}
	final := es.final
	es.mu.Unlock()
	switch {
	case final == nil:
		r.problem("daemon: event stream ended without a final event")
	case final.Error != "" || final.Frame != n-1:
		r.problem("daemon: final event: frame %d error %q, want frame %d and no error", final.Frame, final.Error, n-1)
	}

	logf("daemon: %d frames at %d fps, ingest-to-event p50 %.2f ms p90 %.2f ms", n, ingestFps, quantile(latMs, 0.5), quantile(latMs, 0.9))
	r.set("service.latency_ms_p50", quantile(latMs, 0.5), "ms")
	r.set("service.latency_ms_p90", quantile(latMs, 0.9), "ms")
	r.set("service.post_ms_p50", quantile(postMs, 0.5), "ms")
	r.set("service.post_ms_p90", quantile(postMs, 0.9), "ms")
	r.set("service.frame_bytes", float64(bodyBytes)/float64(n), "B")
	r.set("service.event_bytes", float64(es.bytes.Load())/float64(max(es.received.Load(), 1)), "B")
	r.set("service.cpu_ms_per_frame", (cpu1-cpu0)*10/float64(n), "ms")
	r.set("service.allocs_per_frame", m1["rfprotect_allocs_per_frame"], "count")
	r.set("service.queue_depth_max", float64(qmax.Load()), "count")
	r.set("service.frames_dropped", m1["rfprotect_frames_dropped_total"]-m0["rfprotect_frames_dropped_total"], "count")
	r.set("service.events_dropped", m1["rfprotect_events_dropped_total"]-m0["rfprotect_events_dropped_total"], "count")
	r.set("loadgen.late_ms_max", quantile(lateMs, 1), "ms")
	return nil
}
