package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rfprotect/internal/core"
	"rfprotect/internal/detect"
	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
	"rfprotect/internal/scene"
)

// smokeTraj builds the human and ghost trajectories the smoke rooms use,
// anchored to the radar position exactly like the experiments do.
func smokeTraj(cx float64, n int) (human, ghost geom.Trajectory) {
	human = make(geom.Trajectory, n)
	ghost = make(geom.Trajectory, n)
	for i := range human {
		f := float64(i) / float64(n-1)
		human[i] = geom.Point{X: cx - 3 + 2*f, Y: 4.5 - 1.5*f}
		ghost[i] = geom.Point{X: cx + 0.4 + f, Y: 2.8 + 1.8*f}
	}
	return human, ghost
}

// referenceTracks runs cfg through the library path — the same assembly a
// caller of core+pipeline would write by hand — and returns the tracker's
// full-resolution dumps. The service must be bit-identical to this.
func referenceTracks(t *testing.T, cfg RoomConfig) []TrackDump {
	t.Helper()
	env, err := roomByName(cfg.Room)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.SessionConfig{Room: env, NoMultipath: cfg.NoMultipath})
	if err != nil {
		t.Fatal(err)
	}
	sc := sess.Scene
	for _, h := range cfg.Humans {
		rate := h.Rate
		if rate == 0 {
			rate = sc.Params.FrameRate
		}
		sc.Humans = append(sc.Humans, scene.NewHuman(h.trajectory(), rate))
	}
	for _, g := range cfg.Ghosts {
		rate := g.Rate
		if rate == 0 {
			rate = sc.Params.FrameRate
		}
		if _, err := sess.Ctl.ProgramForRadar(g.trajectory(), sc.Radar, rate, g.Start); err != nil {
			t.Fatal(err)
		}
	}
	plan := radar.PlanFrontEnd(radar.DefaultConfig(), sc.Params)
	pools := pipeline.NewPools(sc.Params)
	stages := pipeline.FrontEndStagesPlanned(plan, sc.Radar, pools)
	var trk *pipeline.TrackStage
	if cfg.DopplerWindow > 0 {
		stages = append(stages, pipeline.NewDopplerPlanned(plan, cfg.DopplerWindow, 0, pools.Doppler))
		trk = pipeline.NewTrackWithVelocity(radar.TrackerConfig{}, sc.Radar)
	} else {
		trk = pipeline.NewTrack(radar.TrackerConfig{})
	}
	stages = append(stages, trk)
	src := sc.Stream(0, cfg.Frames, rand.New(rand.NewSource(cfg.Seed))).UsePool(pools.Frames)
	p := pipeline.New(src, stages...).UsePools(pools)
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	trs := trk.Tracks()
	out := make([]TrackDump, len(trs))
	for i, tr := range trs {
		out[i] = trackDump(tr, detect.TrackScore{})
	}
	return out
}

// waitLeakFree polls until the goroutine count returns to the baseline,
// mirroring the parallel package's leak checks.
func waitLeakFree(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSmokeConcurrentRoomsBitIdentical is the daemon smoke: 8 concurrent
// synthetic rooms × 64 frames through the full HTTP surface — create,
// NDJSON stream, status, tracks — each room's exported tracks compared
// bit-for-bit against the library path run by hand with the same
// configuration. Half the rooms carry a Doppler stage to cover the
// velocity-attributed variant.
func TestSmokeConcurrentRoomsBitIdentical(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 4)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	const rooms, frames = 8, 64
	cx := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams()).Radar.Position.X
	human, ghost := smokeTraj(cx, frames)

	cfgs := make([]RoomConfig, rooms)
	for i := range cfgs {
		cfgs[i] = RoomConfig{
			ID:     fmt.Sprintf("smoke-%d", i),
			Seed:   100 + int64(i),
			Frames: frames,
			Humans: []TrajSpec{{Points: human}},
			Ghosts: []TrajSpec{{Points: ghost}},
		}
		if i%2 == 1 {
			cfgs[i].DopplerWindow = 8
		}
	}

	// Create all rooms and attach one NDJSON stream reader per room.
	var wg sync.WaitGroup
	finals := make([]Event, rooms)
	for i, cfg := range cfgs {
		body, _ := json.Marshal(cfg)
		resp, err := http.Post(srv.URL+"/v1/rooms", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", cfg.ID, resp.StatusCode)
		}
		resp.Body.Close()
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/rooms/" + id + "/stream")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var ev Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Errorf("room %s: bad NDJSON line: %v", id, err)
					return
				}
				if ev.Final {
					finals[i] = ev
					return
				}
			}
			t.Errorf("room %s: stream ended without a final event", id)
		}(i, cfg.ID)
	}
	wg.Wait()

	for i, cfg := range cfgs {
		if !finals[i].Final {
			t.Fatalf("room %s: no final event", cfg.ID)
		}
		if finals[i].Error != "" {
			t.Fatalf("room %s failed: %s", cfg.ID, finals[i].Error)
		}

		// Status: all frames processed, state done.
		resp, err := http.Get(srv.URL + "/v1/rooms/" + cfg.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st RoomStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State != stateDone || st.Frames != frames {
			t.Fatalf("room %s: state %q frames %d, want done/%d", cfg.ID, st.State, st.Frames, frames)
		}

		// Tracks: bit-identical to the library path.
		resp, err = http.Get(srv.URL + "/v1/rooms/" + cfg.ID + "/tracks")
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Tracks []TrackDump `json:"tracks"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := referenceTracks(t, cfg)
		if len(dump.Tracks) != len(want) || len(want) == 0 {
			t.Fatalf("room %s: %d tracks via API, %d via library (want equal, nonzero)", cfg.ID, len(dump.Tracks), len(want))
		}
		for j := range want {
			got := dump.Tracks[j]
			if got.ID != want[j].ID || got.Confirmed != want[j].Confirmed ||
				got.HasVelocity != want[j].HasVelocity || got.RadialVelocity != want[j].RadialVelocity {
				t.Fatalf("room %s track %d: header mismatch: got %+v want %+v", cfg.ID, j, got, want[j])
			}
			if len(got.Points) != len(want[j].Points) {
				t.Fatalf("room %s track %d: %d points, want %d", cfg.ID, j, len(got.Points), len(want[j].Points))
			}
			for k := range want[j].Points {
				if got.Points[k] != want[j].Points[k] {
					t.Fatalf("room %s track %d point %d: got %+v want %+v (not bit-identical)",
						cfg.ID, j, k, got.Points[k], want[j].Points[k])
				}
			}
		}
	}

	// Metrics: per-shard queue depth and frame counters are exposed.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, mustRead(t, resp)); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	for _, want := range []string{
		`rfprotect_queue_depth{shard="0"}`,
		`rfprotect_queue_depth{shard="3"}`,
		`rfprotect_frames_total{shard="0"}`,
		"rfprotect_frames_per_second",
		"rfprotect_allocs_per_frame",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Unknown room → 404.
	resp404, err := http.Get(srv.URL + "/v1/rooms/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown room: status %d, want 404", resp404.StatusCode)
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.Close()
	waitLeakFree(t, baseline)
}

func mustRead(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestIngestDrainNoFrameLoss pins the drain guarantee: every frame whose
// Push returned nil is fully processed before Drain returns, even with a
// pusher racing the drain.
func TestIngestDrainNoFrameLoss(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 2)
	r, err := m.CreateRoom(RoomConfig{ID: "live", QueueDepth: 128})
	if err != nil {
		t.Fatal(err)
	}

	accepted := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; ; i++ {
			f := r.pools.Frames.Get(float64(i) * 0.05)
			if err := r.Push(context.Background(), f); err != nil {
				r.pools.Frames.Put(f)
				break
			}
			n++
			if n == 200 {
				break
			}
		}
		accepted <- n
	}()

	// Let the pusher get going, then drain mid-stream.
	time.Sleep(20 * time.Millisecond)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	n := <-accepted
	if n == 0 {
		t.Fatal("pusher got no frames in before the drain; test proves nothing")
	}
	if got := r.Status().Frames; got != n {
		t.Fatalf("drain dropped in-flight frames: %d accepted, %d processed", n, got)
	}
	if st := r.Status().State; st != stateDone {
		t.Fatalf("room state %q after drain, want done", st)
	}
	waitLeakFree(t, baseline)

	// Post-drain API behavior: new rooms and new frames are refused.
	if _, err := m.CreateRoom(RoomConfig{ID: "late"}); err != ErrDraining {
		t.Fatalf("create after drain: err %v, want ErrDraining", err)
	}
	f := r.pools.Frames.Get(0)
	if err := r.Push(context.Background(), f); err != ErrDraining {
		t.Fatalf("push after drain: err %v, want ErrDraining", err)
	}
	r.pools.Frames.Put(f)
}

// TestQueuePolicies exercises the full-queue paths deterministically by
// never starting a runner: the queue fills and stays full.
func TestQueuePolicies(t *testing.T) {
	sh := &shard{rooms: make(map[string]*Room)}

	// Shed policy: the queue absorbs QueueDepth frames, then fails fast.
	cfg := RoomConfig{ID: "shed", QueueDepth: 2, Shed: true}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newRoom(cfg, 0, sh)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.Push(nil, r.pools.Frames.Get(0)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := r.Push(nil, r.pools.Frames.Get(0)); err != ErrBacklogged {
		t.Fatalf("push to full shed queue: err %v, want ErrBacklogged", err)
	}
	if d := r.Status().Dropped; d != 1 {
		t.Fatalf("dropped counter %d, want 1", d)
	}
	if d := r.Status().QueueDepth; d != 2 {
		t.Fatalf("queue depth %d, want 2", d)
	}

	// Backpressure policy: a full queue blocks until ctx expires.
	cfg = RoomConfig{ID: "block", QueueDepth: 1}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	rb, err := newRoom(cfg, 0, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Push(nil, rb.pools.Frames.Get(0)); err != nil {
		t.Fatal(err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer tcancel()
	if err := rb.Push(tctx, rb.pools.Frames.Get(0)); err != context.DeadlineExceeded {
		t.Fatalf("blocked push: err %v, want DeadlineExceeded", err)
	}

	// Drain wakes blocked pushers and closes the intake.
	rb.beginDrain()
	if err := rb.Push(nil, rb.pools.Frames.Get(0)); err != ErrDraining {
		t.Fatalf("push after room drain: err %v, want ErrDraining", err)
	}

	// Pushing to a synthetic room is a mode error.
	rs, err := newRoom(RoomConfig{ID: "synth", Frames: 4, QueueDepth: 64}, 0, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Push(nil, nil); err != ErrNotIngest {
		t.Fatalf("push to synthetic room: err %v, want ErrNotIngest", err)
	}
}

// TestCloseRoomRemoves covers the DELETE path: the room drains, its queued
// frames finish, and the table forgets it.
func TestCloseRoomRemoves(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 2)
	r, err := m.CreateRoom(RoomConfig{ID: "gone"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r.Push(context.Background(), r.pools.Frames.Get(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.CloseRoom(context.Background(), "gone")
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 8 || st.State != stateDone {
		t.Fatalf("closed room: %+v, want 8 frames done", st)
	}
	if _, err := m.Room("gone"); err != ErrNoRoom {
		t.Fatalf("room still listed after close: err %v", err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateRoomRejected pins the 409 path.
func TestDuplicateRoomRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 2)
	if _, err := m.CreateRoom(RoomConfig{ID: "dup", Frames: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateRoom(RoomConfig{ID: "dup", Frames: 2}); err != ErrRoomExists {
		t.Fatalf("duplicate create: err %v, want ErrRoomExists", err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSpoofScoresConcurrentWithStreaming hammers the spoof-score read path
// while the room's runner is mid-capture: the emit stage advances the
// tracker and feeds the scorer under trkMu on the runner goroutine while
// several goroutines poll dumps, statuses, and the suspect count. Run under
// -race this pins the locking contract; the final dump must show the scorer
// actually observed frames.
func TestSpoofScoresConcurrentWithStreaming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 2)
	cx := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams()).Radar.Position.X
	human, ghost := smokeTraj(cx, 96)
	r, err := m.CreateRoom(RoomConfig{
		ID: "spoof", Seed: 7, Frames: 96, DopplerWindow: 8,
		Humans: []TrajSpec{{Points: human}}, Ghosts: []TrajSpec{{Points: ghost}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-r.done:
					return
				default:
				}
				for _, d := range r.TrackDumps() {
					if math.IsNaN(d.Suspicion) || d.Suspicion < 0 {
						t.Errorf("mid-capture suspicion %v on track %d", d.Suspicion, d.ID)
						return
					}
				}
				if s := r.Status(); s.Suspects < 0 || s.Suspects > s.Tracks {
					t.Errorf("suspects %d out of range for %d tracks", s.Suspects, s.Tracks)
					return
				}
			}
		}()
	}
	<-r.done
	wg.Wait()

	dumps := r.TrackDumps()
	if len(dumps) == 0 {
		t.Fatal("capture produced no tracks")
	}
	scored := 0
	for _, d := range dumps {
		scored += d.ScoredFrames
	}
	if scored == 0 {
		t.Fatal("spoof scorer observed no range–Doppler frames")
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGhostProgramming covers the disclosure endpoints' backing logic: a
// running synthetic room refuses (it would race synthesis), a finished one
// accepts, and records accumulate.
func TestGhostProgramming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	_, ghost := smokeTraj(3, 16)
	r, err := m.CreateRoom(RoomConfig{ID: "g", Frames: 16, Ghosts: []TrajSpec{{Points: ghost}}})
	if err != nil {
		t.Fatal(err)
	}
	<-r.done
	if n := len(r.GhostStatuses()); n != 1 {
		t.Fatalf("%d ghost records after create, want 1", n)
	}
	if _, err := r.ProgramGhost(TrajSpec{Points: ghost}); err != nil {
		t.Fatalf("program on finished room: %v", err)
	}
	if n := len(r.GhostStatuses()); n != 2 {
		t.Fatalf("%d ghost records after program, want 2", n)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
