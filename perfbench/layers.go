package main

import (
	"fmt"
	"strings"
)

// cpuLayers are the layers CPU time is attributed to (attribute): the
// potsim packages the workloads reach, encoding/json, gc and other.
var cpuLayers = []string{
	"sbst", "core", "aging", "power", "thermal", "noc", "mapping", "faults",
	"sim", "mem", "scheduler", "dvfs", "workload", "guard", "metrics",
	"eventlog", "shard", "expt", "batch", "dse", "results", "service",
	"checkpoint", layerJSON, layerGC, layerOther,
}

// corePhases are cumulative CPU shares under core.System methods.
var corePhases = []struct{ name, prefix string }{
	{"core.plan_tests.cpu_share", "potsim/internal/core.(*System).planTests"},
	{"core.grid_refresh.cpu_share", "potsim/internal/core.(*System).refreshGridView"},
	{"core.invariants.cpu_share", "potsim/internal/core.(*System).checkInvariants"},
	{"core.advance.cpu_share", "potsim/internal/core.(*System).advance"},
}

// modelCounters are exact counts from the simulated model (Report,
// /v1/stats, campaign Result). They must not move when only host speed
// changes.
var modelCounters = []string{
	"core.epochs", "sbst.tests_started", "sbst.tests_completed", "sbst.tests_aborted",
	"scheduler.skip_power", "dvfs.transitions", "mapping.apps_mapped",
	"mapping.rejected_epochs", "service.cache_hits", "dse.cells", "dse.ref_runs",
	"dse.quarantined", "expt.cells",
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// experimentIDs lists E1..E19, the quick suite's experiments.
func experimentIDs() []string {
	ids := make([]string, 19)
	for i := range ids {
		ids[i] = fmt.Sprintf("E%d", i+1)
	}
	return ids
}

// layerMetrics is the full per-layer metric list, in BENCHMARK.json
// order. Every traced run prints all of them; a metric that does not
// apply to a workload reads 0.
func layerMetrics() []layerMetric {
	var ms []layerMetric
	for _, l := range cpuLayers {
		ms = append(ms, layerMetric{l + ".cpu_share", "frac", "lower"})
	}
	for _, p := range corePhases {
		ms = append(ms, layerMetric{p.name, "frac", "lower"})
	}
	ms = append(ms,
		layerMetric{"sbst.host_us_per_test", "us", "lower"},
		layerMetric{"sbst.complete_ratio", "frac", "higher"},
		layerMetric{"core.epoch_p50_us", "us", "lower"},
		layerMetric{"core.epoch_p99_us", "us", "lower"},
		layerMetric{"gc.alloc_kb_per_unit", "KB", "lower"},
	)
	for _, c := range modelCounters {
		ms = append(ms, layerMetric{c, "count", "higher"})
	}
	for _, id := range experimentIDs() {
		ms = append(ms, layerMetric{"expt." + id + "_s", "s", "lower"})
	}
	ms = append(ms,
		layerMetric{"expt.cell_max_s", "s", "lower"},
		layerMetric{"batch.busy_frac", "frac", "higher"},
		layerMetric{"service.submit_ms", "ms", "lower"},
		layerMetric{"service.wait_ms", "ms", "lower"},
		layerMetric{"service.result_ms", "ms", "lower"},
		layerMetric{"service.hit_p50_ms", "ms", "lower"},
		layerMetric{"service.job_p90_ms", "ms", "lower"},
		layerMetric{"service.cache_hit_ratio", "frac", "higher"},
		layerMetric{"dse.screen_s", "s", "lower"},
		layerMetric{"dse.full_s", "s", "lower"},
		layerMetric{"dse.survivor_ratio", "frac", "lower"},
		layerMetric{"dse.ref_run_ratio", "frac", "lower"},
	)
	for _, m := range endToEnd {
		ms = append(ms, layerMetric{"traced." + m.name, m.unit, m.better})
	}
	ms = append(ms,
		layerMetric{"raw.setup_s", "s", "lower"},
		layerMetric{"raw.units_per_s", "1/s", "higher"},
		layerMetric{"raw.step_p50_ms", "ms", "lower"},
		layerMetric{"host.speed", "ratio", "higher"},
	)
	return ms
}

// e2eMetric is one end-to-end metric and how it is computed.
type e2eMetric struct {
	layerMetric
	value func(o *outcome, speed float64) float64
}

// endToEnd is the end-to-end metric list, in BENCHMARK.json order.
// value takes the run's host speed factor and scales the medians of the
// measured times by it (hostspeed.go). Tails are per-layer metrics
// (core.epoch_p99_us, service.job_p90_ms): two workloads have only two
// steps per run.
var endToEnd = []e2eMetric{
	{layerMetric{"setup_s", "s", "lower"}, func(o *outcome, speed float64) float64 { return median(o.setupS) * speed }},
	{layerMetric{"units_per_s", "1/s", "higher"}, func(o *outcome, speed float64) float64 { return median(o.rates) / speed }},
	{layerMetric{"step_p50_ms", "ms", "lower"}, func(o *outcome, speed float64) float64 { return median(o.stepMS) * speed }},
}

// perLayer assembles the traced run's metrics: CPU attribution of the
// profile, span-derived layer times, the workload's own layer values
// and the traced run's end-to-end numbers (traced.*), whose difference
// to an untraced run of the same seed is the tracing overhead. Samples
// of the host-speed probes are left out of the CPU shares; host.speed
// is the run's host speed factor (hostClock.speed) and raw.* are the
// end-to-end metrics from the host times as measured. Every other
// per-layer time is as measured.
func perLayer(o *outcome, t *tracer, hc *hostClock, samples []profSample, e2e map[string]metric) map[string]metric {
	samples = withoutProbes(samples)
	vals := map[string]float64{}
	shares := attribute(samples)
	for l, s := range shares {
		vals[l+".cpu_share"] = s
	}
	for _, p := range corePhases {
		vals[p.name] = cumulativeShare(samples, p.prefix)
	}
	var cpuNS int64
	for _, s := range samples {
		cpuNS += s.weight
	}
	vals["gc.alloc_kb_per_unit"] = float64(o.allocBytes) / 1024 / o.units
	if o.testsRun > 0 {
		vals["sbst.host_us_per_test"] = shares["sbst"] * float64(cpuNS) / 1e3 / o.testsRun
	}

	ms := func(name string) float64 { return 1e3 * median(t.durations(name)) }
	vals["service.submit_ms"] = ms("http.submit")
	vals["service.wait_ms"] = ms("http.events")
	vals["service.result_ms"] = ms("http.result")
	vals["service.hit_p50_ms"] = ms("job.hit")
	for _, id := range experimentIDs() {
		vals["expt."+id+"_s"] = median(t.durations("expt." + id))
	}
	cells := t.durations("expt.cell")
	if len(cells) > 0 {
		vals["expt.cell_max_s"] = quantile(cells, 1)
		var wall float64
		for _, id := range experimentIDs() {
			wall += sum(t.durations("expt." + id))
		}
		vals["batch.busy_frac"] = sum(cells) / (suiteWorkers * wall)
	}
	vals["dse.screen_s"] = median(t.durations("dse.screen"))
	vals["dse.full_s"] = median(t.durations("dse.full"))

	for k, v := range o.layer {
		vals[k] = v
	}
	for k, m := range e2e {
		vals["traced."+k] = m.Value
	}
	for _, m := range endToEnd {
		vals["raw."+m.name] = m.value(o, 1)
	}
	vals["host.speed"] = hc.speed()

	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// withoutProbes drops the profile samples taken while a host-speed
// probe ran, so that CPU shares describe the workload alone.
func withoutProbes(samples []profSample) []profSample {
	var out []profSample
	for _, s := range samples {
		probe := false
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "main.refRound") || strings.HasPrefix(fn, "main.(*hostClock)") {
				probe = true
				break
			}
		}
		if !probe {
			out = append(out, s)
		}
	}
	return out
}
