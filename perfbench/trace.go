package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes. Spans
// of one request (a daemon job, a suite pass, a campaign) share Trace.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   string  `json:"trace,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"startUS"`
	EndUS   float64 `json:"endUS"`
}

func (s span) seconds() float64 { return (s.EndUS - s.StartUS) / 1e6 }

// tracer keeps spans in memory and records a CPU profile; both are
// written out when the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	prof  bytes.Buffer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

// begin starts a span now; end it with end().
func (t *tracer) begin(name string, parent *open, trace string) *open {
	return t.beginAt(name, parent, trace, time.Now())
}

// beginAt starts a span at an instant already taken.
func (t *tracer) beginAt(name string, parent *open, trace string, start time.Time) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &open{t: t, id: id, trace: trace, name: name, start: start}
	if parent != nil {
		o.parent = parent.id
	}
	return o
}

func (o *open) end() { o.endAt(time.Now()) }

func (o *open) endAt(end time.Time) {
	if o == nil {
		return
	}
	t := o.t
	s := span{
		ID: o.id, Parent: o.parent, Trace: o.trace, Name: o.name,
		StartUS: float64(o.start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span whose start and end are already known.
func (t *tracer) add(name string, parent *open, trace string, start, end time.Time) {
	t.beginAt(name, parent, trace, start).endAt(end)
}

func (t *tracer) startProfile() error {
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stopProfile() { pprof.StopCPUProfile() }

// durations returns the durations in seconds of every span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// finish stops the profile, writes spans (JSON lines) and the profile
// under dir, and returns the parsed profile samples.
func (t *tracer) finish(dir, stem string) ([]profSample, error) {
	t.stopProfile()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), t.prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return nil, err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", stem, err)
	}
	return samples, nil
}
