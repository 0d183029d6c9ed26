package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func synthetic() []profSample {
	return []profSample{
		// A math leaf counts to its potsim caller.
		{[]string{"math.Exp", "potsim/internal/tech.Node.Leakage", "potsim/internal/power.(*Model).Eval", "potsim/internal/core.(*System).advance"}, 30},
		{[]string{"potsim/internal/sbst.(*MISR).Absorb", "potsim/internal/core.(*System).advance"}, 40},
		// Allocation and collection count to gc.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "potsim/internal/core.(*System).planTests"}, 10},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 5},
		// encoding/json is a layer of its own, reflect under it included.
		{[]string{"reflect.Value.Field", "encoding/json.(*encodeState).marshal", "potsim/internal/service.writeJSON"}, 5},
		// Unknown packages land in other.
		{[]string{"github.com/example/lib.F", "main.main"}, 4},
		{[]string{"potsim/internal/viz.Render"}, 3},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, 3},
		// Zero-weight samples are ignored.
		{[]string{"potsim/internal/noc.Step"}, 0},
	}
}

func TestAttribute(t *testing.T) {
	shares := attribute(synthetic())
	want := map[string]float64{
		"power": 0.30, "sbst": 0.40, layerGC: 0.15, layerJSON: 0.05, layerOther: 0.10,
	}
	total := 0.0
	for l, s := range shares {
		total += s
		if math.Abs(s-want[l]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, s, want[l])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if len(shares) != len(want) {
		t.Errorf("layers %v, want %v", shares, want)
	}
	if got := attribute(nil); len(got) != 0 {
		t.Errorf("empty profile attributed %v", got)
	}
}

func TestCumulativeShare(t *testing.T) {
	s := synthetic()
	if got := cumulativeShare(s, "potsim/internal/core.(*System).advance"); math.Abs(got-0.70) > 1e-12 {
		t.Errorf("advance cumulative share = %v, want 0.70", got)
	}
	if got := cumulativeShare(s, "potsim/internal/core.(*System).planTests"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("planTests cumulative share = %v, want 0.10", got)
	}
}

//go:noinline
func burn(until time.Time) float64 {
	x := 0.0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(time.Now().Add(500 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 || len(s.stack) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		for _, fn := range s.stack {
			found = found || fn == "potsim/perfbench.burn" || fn == "main.burn"
		}
	}
	if !found {
		t.Errorf("no sample of %d has burn on its stack", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	var e2e []layerMetric
	for _, m := range endToEnd {
		e2e = append(e2e, m.layerMetric)
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layerMetrics())
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, program has %d", strings.Join(names, ","), len(workloads))
	}
}
