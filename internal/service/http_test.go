package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"potsim/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		cancelAll(t, s)
		drain(t, s)
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, tenant string, body string) (*http.Response, submitResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &sr); err != nil {
			t.Fatalf("submit response %q: %v", blob, err)
		}
	}
	return resp, sr
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, sr := postJob(t, ts, "alice", `{"kind": "sim", "config": {"Horizon": 20000000, "Seed": 5}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if sr.ID == "" || sr.Fingerprint == "" {
		t.Fatalf("submit response incomplete: %+v", sr)
	}
	job, ok := s.Job(sr.ID)
	if !ok {
		t.Fatal("submitted job not registered")
	}
	waitState(t, job, StateDone)

	st, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status Status
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if status.State != StateDone || status.Tenant != "alice" {
		t.Fatalf("status: %+v", status)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", res.StatusCode, blob)
	}
	direct, _ := job.Result()
	if !bytes.Equal(blob, direct) {
		t.Fatal("HTTP result differs from in-process result")
	}

	// Unknown job IDs are a clean 404.
	nf, _ := http.Get(ts.URL + "/v1/jobs/nonesuch")
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", nf.StatusCode)
	}
	nf.Body.Close()
}

func TestHTTPRejectsMalformedSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                           // truncated JSON
		{`{"kind": "sim", "bogus": 1}`, http.StatusBadRequest}, // unknown spec field
		{`{"kind": "warp"}`, http.StatusBadRequest},            // unknown kind
		{`{"kind": "suite", "experiment": "E99"}`, http.StatusBadRequest},
		{`{"kind": "sim", "config": {"Nope": 1}}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"kind": "sim", "config": {"TracePath": %q}}`, strings.Repeat("x", maxSpecBytes)), http.StatusRequestEntityTooLarge},
	}
	for i, c := range cases {
		resp, _ := postJob(t, ts, "", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status %d, want %d", i, resp.StatusCode, c.want)
		}
	}
	for _, body := range trailingBodies {
		if resp, _ := postJob(t, ts, "", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want %d", body, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

func TestHTTPOverloadGets429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1})

	long := func(seed int) string {
		return fmt.Sprintf(`{"kind": "sim", "config": {"Horizon": %d, "Seed": %d}}`, int64(5000*sim.Millisecond), seed)
	}
	// Occupy the worker and the queue slot.
	r1, sr1 := postJob(t, ts, "a", long(1))
	r2, _ := postJob(t, ts, "b", long(2))
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusAccepted {
		t.Fatalf("setup submissions: %d, %d", r1.StatusCode, r2.StatusCode)
	}
	_ = sr1
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJob(t, ts, "c", long(3))
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		// The first job may not have been picked up yet, leaving a queue
		// slot; 202 is possible briefly. Anything else is a bug.
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("overload submit: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPCancelAndConflictResult(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	_, sr := postJob(t, ts, "", `{"kind": "sim", "config": {"Horizon": 5000000000, "Seed": 9}}`)
	job, _ := s.Job(sr.ID)
	waitState(t, job, StateRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	waitTerminal(t, job)

	// The result of a canceled job is a 409, not a 404: it will never
	// exist, which is different from "not yet".
	res, _ := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result status %d", res.StatusCode)
	}
}

func TestHTTPHealthReadyStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	for _, path := range []string{"/livez", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("health: %+v", h)
	}
	var st Stats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.QueueDepth != 16 || st.JobWorkers != 2 {
		t.Fatalf("stats defaults: %+v", st)
	}

	// After drain: /readyz flips to 503 + Retry-After, /livez stays 200.
	drain(t, s)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz while draining: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez while draining: %d", resp.StatusCode)
	}
}

// TestHTTPEventsStream subscribes to a job's SSE stream and expects at
// least one progress event and the terminal done event.
func TestHTTPEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, sr := postJob(t, ts, "", `{"kind": "sim", "config": {"Horizon": 100000000, "Seed": 3}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sawProgress, sawDone := false, false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Type == EventProgress && ev.Epochs > 0 {
			sawProgress = true
		}
		if ev.Type == EventState && ev.State == StateDone {
			sawDone = true
			break
		}
	}
	if !sawProgress || !sawDone {
		t.Fatalf("stream: progress=%v done=%v", sawProgress, sawDone)
	}
	job, _ := s.Job(sr.ID)
	waitState(t, job, StateDone)

	// Late subscribers get the terminal event replayed immediately.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"done"`) {
			return
		}
	}
	t.Fatal("late subscriber never saw the terminal event")
}
