package main

import (
	"fmt"
	"runtime"
	"time"

	"potsim/internal/core"
	"potsim/internal/sim"
)

// meshHorizon is part of the workload: POTS host cost per simulated ms
// grows with the horizon at 64x64, so a different horizon is a
// different workload.
const meshHorizon = 100 * sim.Millisecond

// meshSetupProbes is how many core.New calls measure set-up before the
// measured window; set-up is their median.
const meshSetupProbes = 21

// meshProbes is how many host-speed probes follow each Run: a run has
// only about ten Runs.
const meshProbes = 3

// meshInputs is how many configurations a run cycles through. Host cost
// varies by several percent between configuration seeds, so a run
// spreads its iterations over meshInputs of them and every input runs
// at least twice in a full-length run, which also checks that repeated
// runs of one input agree byte for byte.
const meshInputs = 3

// meshConfig is the i-th input of the workload seed: the default
// configuration at 64x64 with POTS, serial, over meshHorizon.
func meshConfig(seed uint64, i int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = core.MaxMeshSide, core.MaxMeshSide
	cfg.Horizon = meshHorizon
	cfg.Seed = mix(seed, uint64(i))
	return cfg
}

// runMesh runs the default POTS configuration at 64x64, serially, one
// core.New + Run per iteration. A step is one Run; a unit of work is one
// simulated ms. Epochs are timed between consecutive OnEpoch calls for
// the per-layer epoch percentiles: their median moved by 24% between
// runs on a noisy host where the Run time moved by 14%. The golden
// digest is that of input 0.
func runMesh(e *env) error {
	o := e.out
	cfg := meshConfig(e.seed, 0)
	for i := 0; i < meshSetupProbes; i++ {
		// Each probe starts from a collected heap, so it times core.New's
		// own work rather than the OS handing out fresh pages.
		runtime.GC()
		t0 := time.Now()
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		sys.Close()
	}

	epochs := int(meshHorizon / cfg.Epoch)
	stamps := make([]time.Time, 0, epochs+1)
	var first *core.Report
	var epochMS []float64
	digests := make([]string, meshInputs)
	e.start = time.Now()
	alloc0 := allocated()
	var last time.Duration
	for iter := 0; e.fits(last, iter); iter++ {
		input := iter % meshInputs
		it := e.tr.begin("mesh.iteration", nil, fmt.Sprintf("run%d", iter))
		t0 := time.Now()
		sp := e.tr.begin("core.New", it, "")
		sys, err := core.New(meshConfig(e.seed, input))
		if err != nil {
			return err
		}
		sp.end()
		stamps = stamps[:0]
		sys.OnEpoch(func(int64, sim.Time) { stamps = append(stamps, time.Now()) })
		runSpan := e.tr.begin("core.Run", it, "")
		tRun := time.Now()
		rep, err := sys.Run()
		runDur := time.Since(tRun)
		runSpan.end()
		sys.Close()
		it.end()
		e.hc.probe(meshProbes)
		last = time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail("mesh run %d: %v", iter, err)
			continue
		}
		for k := 1; k < len(stamps); k++ {
			epochMS = append(epochMS, float64(stamps[k].Sub(stamps[k-1]).Nanoseconds())/1e6)
			e.tr.add("core.epoch", runSpan, "", stamps[k-1], stamps[k])
		}
		o.addStep(runDur)
		o.addRate(meshHorizon.Millis(), runDur)
		o.units += meshHorizon.Millis()
		o.testsRun += float64(rep.TestsStarted)

		d, err := checkReport(rep, len(stamps), epochs)
		if err != nil {
			o.fail("mesh run %d: %v", iter, err)
			continue
		}
		if first == nil {
			first = rep
			if err := checkGolden("mesh64-pots", e.seed, d); err != nil {
				o.fail("%v", err)
			}
		}
		if digests[input] == "" {
			digests[input] = d
		} else if d != digests[input] {
			o.fail("mesh run %d: report digest %s differs from the earlier run of input %d (%s)", iter, d[:12], input, digests[input][:12])
		}
	}
	o.allocBytes = allocated() - alloc0
	if first != nil {
		setCounters(o, first, epochs)
		o.setLayer("core.epoch_p50_us", 1e3*median(epochMS))
		o.setLayer("core.epoch_p99_us", 1e3*quantile(epochMS, 0.99))
		o.notes = append(o.notes, fmt.Sprintf("mesh64-pots: sim_ms_per_s %.2f as measured, epoch p50 %.0f us, p99 %.0f us, tests %d started / %d completed",
			median(o.rates), 1e3*median(epochMS), 1e3*quantile(epochMS, 0.99), first.TestsStarted, first.TestsCompleted))
	}
	return nil
}

// checkReport applies the per-run output checks — every epoch observed,
// Sanity, no guard violations — and returns the digest of the Report
// JSON.
func checkReport(rep *core.Report, observed, want int) (string, error) {
	if observed != want {
		return "", fmt.Errorf("observed %d epochs, want %d", observed, want)
	}
	if err := rep.Sanity(); err != nil {
		return "", err
	}
	if rep.GuardViolations != 0 {
		return "", fmt.Errorf("%d guard violations", rep.GuardViolations)
	}
	blob, err := rep.JSON()
	if err != nil {
		return "", err
	}
	return digest(blob), nil
}

// setCounters records the exact model counters of one report.
func setCounters(o *outcome, rep *core.Report, epochs int) {
	o.setLayer("core.epochs", float64(epochs))
	o.setLayer("sbst.tests_started", float64(rep.TestsStarted))
	o.setLayer("sbst.tests_completed", float64(rep.TestsCompleted))
	o.setLayer("sbst.tests_aborted", float64(rep.TestsAborted))
	if rep.TestsStarted > 0 {
		o.setLayer("sbst.complete_ratio", float64(rep.TestsCompleted)/float64(rep.TestsStarted))
	}
	o.setLayer("scheduler.skip_power", float64(rep.TestsSkipPower))
	o.setLayer("dvfs.transitions", float64(rep.DVFSTransitions))
	o.setLayer("mapping.apps_mapped", float64(rep.AppsMapped))
	o.setLayer("mapping.rejected_epochs", float64(rep.RejectedEpochs))
}
