// Command perfbench is potsim's end-to-end benchmark. It runs one named
// workload against the library and daemon APIs for a fixed time, checks
// every output, and prints one JSON result line:
//
//	perfbench --workload mesh64-pots --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans around
// the benchmark's own calls and from a CPU profile attributed to
// packages. See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// golden.go; heldOutSeed is reserved for confirming gain claims on
// inputs not used while a change was written.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload gets from the harness: its inputs and the
// place to record what it measured.
type env struct {
	seed    uint64
	seconds time.Duration
	work    string     // scratch directory, removed at exit
	tr      *tracer    // nil in untraced runs
	hc      *hostClock // probes the host's speed between steps
	out     *outcome
	start   time.Time // start of the measured window
}

// outcome is what a workload measured, as measured; the end-to-end
// metrics scale its times by the run's host speed (hostspeed.go). Units
// of work differ per workload (README.md, "End-to-end metrics").
type outcome struct {
	setupS     []float64 // set-up samples, seconds
	stepMS     []float64 // per-step host times, milliseconds
	rates      []float64 // units of work per host second, one per step or round
	units      float64   // units of work completed in the measured window
	allocBytes uint64    // bytes allocated in the measured window
	attempted  int
	failed     int
	testsRun   float64            // SBST tests started in the measured window
	layer      map[string]float64 // per-layer values the workload measured itself
	notes      []string
}

// fail counts one failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// setLayer records a per-layer value measured by the workload.
func (o *outcome) setLayer(name string, v float64) { o.layer[name] = v }

func (o *outcome) addStep(d time.Duration) {
	o.stepMS = append(o.stepMS, float64(d.Nanoseconds())/1e6)
}

// addRate records units of work done in d.
func (o *outcome) addRate(units float64, d time.Duration) {
	o.rates = append(o.rates, units/d.Seconds())
}

// workload is one named workload. width, the number of CPUs it keeps
// busy, and sbst, its SBST share of CPU time in the first traced run
// (README.md), shape its host-speed probes.
type workload struct {
	run   func(*env) error
	width int
	sbst  float64
}

var workloads = map[string]workload{
	"mesh64-pots": {runMesh, 1, 0.67},
	"suite-quick": {runSuite, suiteWorkers, 0.48},
	"daemon-jobs": {runDaemon, daemonClients, 0},
	"campaign":    {runCampaign, campaignWorkers, 0.9},
}

// fits reports whether another iteration of the given expected length
// still fits in the measured window. The first step always runs.
func (e *env) fits(expected time.Duration, done int) bool {
	if done == 0 {
		return true
	}
	return time.Since(e.start)+expected <= e.seconds
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: mesh64-pots, suite-quick, daemon-jobs or campaign")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed; every generated input derives from it (%d is held out for confirming gains)", heldOutSeed))
	seconds := flag.Int("seconds", 28, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and prints per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		work:    work,
		hc:      newHostClock(wl.width, wl.sbst),
		out:     &outcome{layer: map[string]float64{}},
	}
	e.hc.probe(1)
	if *trace == 1 {
		e.tr = newTracer()
		if err := e.tr.startProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := wl.run(e); err != nil {
		if e.tr != nil {
			e.tr.stopProfile()
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	o := e.out
	if o.attempted < 1 || len(o.setupS) == 0 || len(o.stepMS) == 0 || len(o.rates) == 0 || o.units <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s measured nothing\n", *workload)
		return 1
	}
	if err := e.hc.check(); err != nil {
		o.fail("%v", err)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	fmt.Printf("host speed %.3f of the reference host (upper quartile of %d probes, range %.3f-%.3f); as measured: setup_s %.6g, units_per_s %.6g, step_p50_ms %.6g\n",
		e.hc.speed(), len(e.hc.speeds), quantile(e.hc.speeds, 0), quantile(e.hc.speeds, 1),
		median(o.setupS), median(o.rates), median(o.stepMS))

	e2e := map[string]metric{}
	for _, m := range endToEnd {
		e2e[m.name] = metric{m.value(o, e.hc.speed()), m.unit}
	}
	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   e2e,
	}
	fmt.Printf("%s seed %d: %d steps, %.1f units of work, fail_frac %.4f (%d/%d)\n",
		*workload, *seed, len(o.stepMS), o.units, float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	if e.tr != nil {
		samples, err := e.tr.finish(filepath.Join(outDir, "trace"), fmt.Sprintf("%s-seed%d", *workload, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		line.Metrics = perLayer(o, e.tr, e.hc, samples, e2e)
	}
	printSorted(line.Metrics)
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

// printSorted writes the metrics one per line for humans, ahead of the
// machine-read result line.
func printSorted(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
