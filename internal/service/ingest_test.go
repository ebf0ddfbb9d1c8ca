package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/scene"
)

// boundFrames captures n frames of a home with a walking human and scales
// them so the largest sample component sits exactly at maxSampleMagnitude.
func boundFrames(n int) []FrameSpec {
	sc := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams())
	cx := sc.Radar.Position.X
	sc.Humans = []*scene.Human{scene.NewHuman(geom.Trajectory{{X: cx - 1, Y: 3}, {X: cx + 1, Y: 4}}, 1)}
	frames := sc.Capture(0, n, rand.New(rand.NewSource(4)))
	peak, pk, pi := 0.0, 0, 0
	for _, f := range frames {
		for k, row := range f.Data {
			for i, v := range row {
				if a := math.Max(math.Abs(real(v)), math.Abs(imag(v))); a > peak {
					peak, pk, pi = a, k, i
				}
			}
		}
	}
	scale := maxSampleMagnitude / peak
	specs := make([]FrameSpec, n)
	for j, f := range frames {
		specs[j] = FrameSpec{Time: f.Time, Data: make([][][2]float64, len(f.Data))}
		for k, row := range f.Data {
			specs[j].Data[k] = make([][2]float64, len(row))
			for i, v := range row {
				specs[j].Data[k][i] = [2]float64{
					math.Max(-maxSampleMagnitude, math.Min(maxSampleMagnitude, real(v)*scale)),
					math.Max(-maxSampleMagnitude, math.Min(maxSampleMagnitude, imag(v)*scale)),
				}
			}
		}
	}
	specs[0].Data[pk][pi][0] = maxSampleMagnitude
	return specs
}

// TestIngestRejectsOutOfRangeSamples drives a Doppler ingest room over
// HTTP with hostile input. A frame whose samples are ~1e300 (legal JSON)
// would otherwise turn every downstream power into NaN, fail the events'
// JSON encoding and cut the NDJSON stream short; it must be refused with
// 400. Frames at the bound must process into events that all encode, and
// the stream must still end with its final event.
func TestIngestRejectsOutOfRangeSamples(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := post("/v1/rooms", []byte(`{"id":"hostile","doppler_window":8}`)); code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("create room: %d %s", code, body)
	}
	resp, err := http.Get(srv.URL + "/v1/rooms/hostile/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan []string, 1)
	go func() {
		var got []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			got = append(got, sc.Text())
		}
		lines <- got
	}()

	const n = 24
	specs := boundFrames(n)
	hostile := specs[0]
	hostile.Data = append([][][2]float64(nil), hostile.Data...)
	hostile.Data[3] = append([][2]float64(nil), hostile.Data[3]...)
	hostile.Data[3][17] = [2]float64{1e300, -1e300}
	body, err := json.Marshal(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := post("/v1/rooms/hostile/frames", body); code != http.StatusBadRequest || !strings.Contains(resp, `"ingested":0`) {
		t.Fatalf("out-of-range frame: %d %s, want 400 with nothing ingested", code, resp)
	}

	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if code, resp := post("/v1/rooms/hostile/frames", batch.Bytes()); code != http.StatusOK {
		t.Fatalf("frames at the bound: %d %s, want 200", code, resp)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/rooms/hostile", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("close room: %d", del.StatusCode)
	}

	got := <-lines
	if len(got) != n+1 {
		t.Fatalf("stream carried %d lines, want %d events plus the final one", len(got), n)
	}
	withDets := 0
	for i, line := range got {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Final != (i == n) || ev.Error != "" {
			t.Fatalf("line %d: final=%v error=%q", i, ev.Final, ev.Error)
		}
		if len(ev.Detections) > 0 {
			withDets++
		}
	}
	if withDets == 0 {
		t.Fatal("no event carried detections: the bound was not exercised")
	}
}
