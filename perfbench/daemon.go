package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"potsim/internal/core"
	"potsim/internal/service"
	"potsim/internal/sim"
)

// Daemon workload shape: a closed loop of daemonClients clients, each
// with one connection and at most one job in flight. Every hitEvery-th
// submission of a client repeats its own submission hitEvery-1 earlier,
// which has finished, so it is a cache hit.
const (
	daemonClients     = 2
	hitEvery          = 4
	daemonHorizon     = 50 * sim.Millisecond
	daemonSetupProbes = 21
	daemonDigestJobs  = 8           // client 0's first results, hashed for the golden check
	daemonRound       = time.Second // load runs in rounds with a host-speed probe between them
	drainTimeout      = 30 * time.Second
)

// daemon is one in-process service served on a loopback listener.
type daemon struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan error
}

// startDaemon serves a service with the default configuration except
// for two settings:
//   - DataDir is empty, so jobs and the result cache live in memory: on
//     the virtual disk of a small cloud host the durable writes (about a
//     dozen fsyncs per fresh job) made throughput drift from 103 to 40
//     jobs/s over a quarter hour of repeated runs;
//   - one job worker, so the simulation leaves a CPU to the clients and
//     HTTP handlers: with two workers on two CPUs they waited for Go's
//     10 ms preemption, and the median fresh-job latency jumped between
//     11 and 18 ms from run to run.
func startDaemon() (*daemon, error) {
	srv, err := service.New(service.Config{JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return nil, errors.Join(err, srv.Drain(drainCtx))
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for Serve to return and drains the
// service's workers.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Drain(ctx))
}

// jobSpec is the fresh sim job a client submits at position k: an 8x8
// NoTest run whose seed derives from the workload seed.
func jobSpec(seed uint64, client, k int) []byte {
	s := mix(seed, uint64(client), uint64(k))%1_000_000_000 + 1
	return []byte(fmt.Sprintf(`{"kind":"sim","config":{"Width":8,"Height":8,"TestPolicy":"notest","Horizon":%d,"Seed":%d}}`,
		int64(daemonHorizon), s))
}

// jobRecord is what a client keeps of one submission.
type jobRecord struct {
	spec   []byte
	result []byte
	hit    bool
}

// client is one closed-loop client. Its fields are written only by its
// own goroutine and read after that goroutine has finished.
type client struct {
	id   int
	hc   *http.Client
	base string
	e    *env
	jobs []jobRecord

	latency []float64 // fresh-job submit-to-result, ms
	done    int       // completed submissions, fresh or cached
	errs    []string
	first   *core.Report // report of the first fresh job
}

func (c *client) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// loop submits until end, continuing the client's sequence of
// submissions; the job in flight at end completes. Every result is
// checked as it arrives.
func (c *client) loop(end time.Time) {
	for time.Now().Before(end) {
		k := len(c.jobs)
		rec := jobRecord{}
		orig := k - (hitEvery - 1)
		wantHit := k%hitEvery == hitEvery-1
		if wantHit {
			rec.spec = c.jobs[orig].spec
		} else {
			rec.spec = jobSpec(c.e.seed, c.id, k)
		}
		if err := c.one(k, &rec); err != nil {
			c.failf("client %d job %d: %v", c.id, k, err)
		} else if wantHit && !rec.hit {
			c.failf("client %d job %d: repeated spec was not a cache hit", c.id, k)
		} else if wantHit && !bytes.Equal(rec.result, c.jobs[orig].result) {
			c.failf("client %d job %d: cache-hit result differs from the original job's result", c.id, k)
		} else if !rec.hit {
			if rep, err := decodeResult(rec.result); err != nil {
				c.failf("client %d job %d: %v", c.id, k, err)
			} else if c.first == nil {
				c.first = rep
			}
		}
		c.jobs = append(c.jobs, rec)
		// Later hits compare against later originals; keep only what
		// the golden digest of client 0 still needs.
		if orig >= 0 && (c.id != 0 || orig >= daemonDigestJobs) {
			c.jobs[orig].result = nil
		}
	}
}

// one runs a submission end to end: POST the spec, follow the job's
// event stream to a terminal state, GET the result.
func (c *client) one(k int, rec *jobRecord) error {
	tr := c.e.tr
	traceID := fmt.Sprintf("c%d-%d", c.id, k)
	t0 := time.Now()
	root := tr.beginAt("job", nil, traceID, t0)
	sp := tr.begin("http.submit", root, traceID)
	var sub struct {
		ID       string `json:"id"`
		CacheHit bool   `json:"cacheHit"`
	}
	if err := c.do(http.MethodPost, "/v1/jobs", rec.spec, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&sub)
	}, http.StatusAccepted); err != nil {
		return err
	}
	sp.end()
	rec.hit = sub.CacheHit

	// The stream opens with the job's current state, which may already
	// be terminal; only the wait is timed.
	state := ""
	events := "http.events"
	if rec.hit {
		events = "http.events.hit"
	}
	sp = tr.begin(events, root, traceID)
	err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev service.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return err
			}
			if ev.Type == service.EventState {
				state = string(ev.State)
				if ev.State != service.StateQueued && ev.State != service.StateRunning {
					return nil
				}
			}
		}
		return sc.Err()
	}, http.StatusOK)
	sp.end()
	if err != nil {
		return err
	}
	if state != string(service.StateDone) {
		return fmt.Errorf("job %s ended %q", sub.ID, state)
	}

	sp = tr.begin("http.result", root, traceID)
	err = c.do(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, func(r io.Reader) error {
		var rerr error
		rec.result, rerr = io.ReadAll(r)
		return rerr
	}, http.StatusOK)
	end := time.Now()
	sp.endAt(end)
	root.endAt(end)
	if err != nil {
		return err
	}
	if rec.hit {
		tr.add("job.hit", nil, traceID, t0, end)
	} else {
		c.latency = append(c.latency, float64(end.Sub(t0).Nanoseconds())/1e6)
	}
	c.done++
	return nil
}

// do issues one request; any status other than want is a failure.
func (c *client) do(method, path string, body []byte, read func(io.Reader) error, want int) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("client%d", c.id))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// runDaemon drives an in-process potsim daemon over HTTP. A step is one
// fresh job (submit to result received); a unit of work is one
// completed job, fresh or cached. Set-up is service.New plus listener
// start until /readyz answers. The load runs in rounds of daemonRound:
// both clients finish their job in flight and the host's speed is
// probed with the daemon idle; units_per_s is the median over rounds.
func runDaemon(e *env) error {
	o := e.out
	var d *daemon
	for i := 0; i < daemonSetupProbes; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		runtime.GC() // as for the mesh probes: time the work, not heap growth
		t0 := time.Now()
		var err error
		d, err = startDaemon()
		if err != nil {
			return err
		}
		if err := waitReady(d.base); err != nil {
			return errors.Join(err, d.stop())
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	clients := make([]*client, daemonClients)
	for i := range clients {
		clients[i] = &client{
			id: i, base: d.base, e: e,
			hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
	}
	e.start = time.Now()
	alloc0 := allocated()
	windowEnd := e.start.Add(e.seconds)
	completed := 0
	for round := 0; round == 0 || time.Now().Add(daemonRound).Before(windowEnd); round++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.loop(t0.Add(daemonRound))
			}(c)
		}
		wg.Wait()
		dur := time.Since(t0)
		e.hc.probe(1)
		n := 0
		for _, c := range clients {
			n += c.done
		}
		o.addRate(float64(n-completed), dur)
		completed = n
	}
	o.allocBytes = allocated() - alloc0

	var stats service.Stats
	statsErr := clients[0].do(http.MethodGet, "/v1/stats", nil, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&stats)
	}, http.StatusOK)
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if err := d.stop(); err != nil {
		return err
	}
	if statsErr != nil {
		return statsErr
	}

	hits := 0
	for _, c := range clients {
		o.stepMS = append(o.stepMS, c.latency...)
		o.attempted += len(c.jobs)
		for _, msg := range c.errs {
			o.fail("%s", msg)
		}
		for _, j := range c.jobs {
			if j.hit {
				hits++
			}
		}
	}
	o.setLayer("service.job_p90_ms", quantile(o.stepMS, 0.9))
	o.units = float64(completed)
	checkDaemonResults(e, clients, stats, hits)
	o.notes = append(o.notes, fmt.Sprintf("daemon-jobs: %d jobs (%d cache hits), fresh p50 %.1f ms as measured, stats %+v",
		completed, hits, median(o.stepMS), stats))
	return nil
}

// checkDaemonResults records the first fresh report's counters, hashes
// client 0's first results for the golden check and cross-checks the
// server's counters against what the clients saw.
func checkDaemonResults(e *env, clients []*client, stats service.Stats, hits int) {
	o := e.out
	for _, c := range clients {
		if c.first != nil {
			setCounters(o, c.first, int(daemonHorizon/c.first.Config.Epoch))
			break
		}
	}
	c0 := clients[0].jobs
	if len(c0) < daemonDigestJobs {
		o.fail("daemon: client 0 finished %d jobs, the digest needs %d", len(c0), daemonDigestJobs)
	} else {
		parts := make([][]byte, daemonDigestJobs)
		for i := range parts {
			parts[i] = c0[i].result
		}
		if err := checkGolden("daemon-jobs", e.seed, digest(parts...)); err != nil {
			o.fail("%v", err)
		}
	}
	if stats.CacheHits != hits || stats.Failed != 0 || stats.GuardViolations != 0 {
		o.fail("daemon stats: %d cache hits (clients saw %d), %d failed, %d guard violations",
			stats.CacheHits, hits, stats.Failed, stats.GuardViolations)
	}
	o.setLayer("service.cache_hits", float64(stats.CacheHits))
	if stats.Submitted > 0 {
		o.setLayer("service.cache_hit_ratio", float64(stats.CacheHits)/float64(stats.Submitted))
	}
}

// decodeResult checks one sim job result document and returns its
// report.
func decodeResult(doc []byte) (*core.Report, error) {
	var rd service.ResultDoc
	if err := json.Unmarshal(doc, &rd); err != nil {
		return nil, err
	}
	if rd.GuardViolations != 0 {
		return nil, fmt.Errorf("%d guard violations", rd.GuardViolations)
	}
	var rep core.Report
	if err := json.Unmarshal(rd.Report, &rep); err != nil {
		return nil, err
	}
	if err := rep.Sanity(); err != nil {
		return nil, err
	}
	if rep.GuardViolations != 0 {
		return nil, fmt.Errorf("%d guard violations in the report", rep.GuardViolations)
	}
	return &rep, nil
}

// waitReady polls /readyz until the daemon admits work.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				http.DefaultClient.CloseIdleConnections()
				return nil
			}
		}
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
