package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"potsim/internal/dse"
	"potsim/internal/results"
)

// campaignWorkers is the engine's cell parallelism, sized to a 2-CPU
// host.
const campaignWorkers = 2

// campaignSpec generates the campaign from the workload seed: two
// meshes, two nodes, three TDP fractions and two test intervals jittered
// around fixed centres, three policies, two seeds, 40 ms full and 10 ms
// screening horizons (144 screening cells). The jitter is narrow so
// that seeds change the cells' outcomes, not the amount of work.
func campaignSpec(seed uint64) *dse.Spec {
	jitter := func(stream uint64, centre, width, step float64) float64 {
		v := centre + (unit(mix(seed, 0xca, stream))-0.5)*width
		return math.Round(v/step) * step
	}
	return &dse.Spec{
		Name:   fmt.Sprintf("perfbench-%d", seed),
		Meshes: []string{"4x4", "8x8"},
		Nodes:  []string{"22nm", "16nm"},
		TDPFractions: []float64{
			jitter(1, 0.30, 0.02, 0.001), jitter(2, 0.40, 0.02, 0.001), jitter(3, 0.50, 0.02, 0.001),
		},
		BaseIntervalsMS: []float64{jitter(4, 20, 2, 0.1), jitter(5, 40, 2, 0.1)},
		Policies:        []string{"pots", "periodic", "notest"},
		Seeds:           2,
		HorizonMS:       40,
		Screen:          &dse.ScreenSpec{HorizonMS: 10},
	}
}

// stageClock timestamps the engine's stage-start lines on its progress
// stream and calls onStage, when set, at each one.
type stageClock struct {
	mu      sync.Mutex
	starts  map[string]time.Time
	onStage func()
}

func newStageClock(onStage func()) *stageClock {
	return &stageClock{starts: map[string]time.Time{}, onStage: onStage}
}

func (s *stageClock) Write(p []byte) (int, error) {
	now := time.Now()
	for _, line := range strings.Split(string(p), "\n") {
		// beginStage: "dse: <name>: stage <stage>: <n> cells (<k> already journaled)"
		if !strings.HasSuffix(line, "already journaled)") {
			continue
		}
		if _, rest, ok := strings.Cut(line, ": stage "); ok {
			stage, _, _ := strings.Cut(rest, ":")
			s.mu.Lock()
			s.starts[stage] = now
			s.mu.Unlock()
			if s.onStage != nil {
				s.onStage()
			}
		}
	}
	return len(p), nil
}

func (s *stageClock) at(stage string) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts[stage]
}

// campaignSetupProbes is how many campaign starts measure set-up before
// the measured window; set-up is their median. campaignProbes is how
// many host-speed probes follow each pass: a run has only about nine
// passes.
const (
	campaignSetupProbes = 21
	campaignProbes      = 3
)

// newEngine parses the spec, as a user loading it would, and builds the
// engine over fresh directories under dir.
func newEngine(blob []byte, dir string, clock *stageClock) (*dse.Engine, error) {
	spec, err := dse.ParseSpec(blob)
	if err != nil {
		return nil, err
	}
	return &dse.Engine{
		Spec:     spec,
		Dir:      filepath.Join(dir, "state"),
		StoreDir: filepath.Join(dir, "store"),
		Workers:  campaignWorkers,
		Stderr:   clock,
	}, nil
}

// setupProbe times one campaign start: spec parse plus the engine's work
// until the screening stage begins. The run is cancelled at that point,
// before any cell is handed out.
func setupProbe(blob []byte, dir string) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clock := newStageClock(cancel)
	runtime.GC() // as for the mesh probes: time the work, not heap growth
	t0 := time.Now()
	eng, err := newEngine(blob, dir, clock)
	if err != nil {
		return 0, err
	}
	if _, err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("cancelled campaign start returned %v", err)
	}
	screen := clock.at("screen")
	if screen.IsZero() {
		return 0, errors.New("campaign start: screening stage not observed on the progress stream")
	}
	return screen.Sub(t0), os.RemoveAll(dir)
}

// runCampaign runs the generated campaign through dse.Engine with the
// result store on, one fresh state and store directory per pass. A step
// is one screening stage (its 144 cells do not depend on which cells
// survive); a unit of work is one simulated core-millisecond, reference
// runs included, so throughput does not depend on the survivor count.
func runCampaign(e *env) error {
	o := e.out
	blob, err := json.Marshal(campaignSpec(e.seed))
	if err != nil {
		return err
	}
	for i := 0; i < campaignSetupProbes; i++ {
		d, err := setupProbe(blob, filepath.Join(e.work, fmt.Sprintf("probe%d", i)))
		if err != nil {
			return err
		}
		o.setupS = append(o.setupS, d.Seconds())
	}
	var firstDigest string
	e.start = time.Now()
	alloc0 := allocated()
	var last time.Duration
	for pass := 0; e.fits(last, pass); pass++ {
		dir := filepath.Join(e.work, fmt.Sprintf("campaign%d", pass))
		trace := fmt.Sprintf("pass%d", pass)
		t0 := time.Now()
		ps := e.tr.beginAt("dse.campaign", nil, trace, t0)
		clock := newStageClock(nil)
		eng, err := newEngine(blob, dir, clock)
		if err != nil {
			return err
		}
		res, err := eng.Run(context.Background())
		end := time.Now()
		ps.endAt(end)
		e.hc.probe(campaignProbes)
		last = time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail("campaign pass %d: %v", pass, err)
			continue
		}
		screen, full := clock.at("screen"), clock.at("full")
		if screen.IsZero() || full.IsZero() {
			return fmt.Errorf("campaign pass %d: stage starts not observed on the progress stream", pass)
		}
		e.tr.add("dse.screen", ps, trace, screen, full)
		e.tr.add("dse.full", ps, trace, full, end)
		o.addStep(full.Sub(screen))

		// A pass is one checked operation: it fails once, whatever the
		// number of problems found.
		var problems []string
		work, err := campaignCounters(o, res, eng.StoreDir, pass == 0)
		if err != nil {
			problems = append(problems, err.Error())
		}
		o.units += work
		o.addRate(work, end.Sub(t0))
		if n := len(res.Quarantine.Cells); n > 0 {
			problems = append(problems, fmt.Sprintf("%d quarantined cells: %s", n, res.Quarantine.Summary()))
		}
		d := digest([]byte(res.CSV()))
		if firstDigest == "" {
			firstDigest = d
			if err := checkGolden("campaign", e.seed, d); err != nil {
				problems = append(problems, err.Error())
			}
		} else if d != firstDigest {
			problems = append(problems, fmt.Sprintf("frontier digest %s differs from pass 0 (%s)", d[:12], firstDigest[:12]))
		}
		if len(problems) > 0 {
			o.fail("campaign pass %d: %s", pass, strings.Join(problems, "; "))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	o.allocBytes = allocated() - alloc0
	return nil
}

// campaignCounters returns the simulated core-ms of one pass and, when
// record is set, records the campaign's exact counts. Reference runs are
// the NoTest re-runs of every testing-policy cell, counted from the
// policy column of each stage's result store.
func campaignCounters(o *outcome, res *dse.Result, storeDir string, record bool) (work float64, err error) {
	refs := 0
	for _, stage := range []struct {
		name string
		ms   float64
	}{{"screen", res.Spec.Screen.HorizonMS}, {"full", res.Spec.HorizonMS}} {
		n, w, err := stageWork(dse.StageStorePath(storeDir, stage.name), stage.ms)
		if err != nil {
			return 0, err
		}
		refs += n
		work += w
	}
	if !record {
		return work, nil
	}
	cells := float64(res.Screened + res.Survivors)
	o.setLayer("dse.cells", cells)
	o.setLayer("dse.ref_runs", float64(refs))
	o.setLayer("dse.quarantined", float64(len(res.Quarantine.Cells)))
	o.setLayer("dse.ref_run_ratio", float64(refs)/(cells+float64(refs)))
	if res.Screened > 0 {
		o.setLayer("dse.survivor_ratio", float64(res.Survivors)/float64(res.Screened))
	}
	o.notes = append(o.notes, fmt.Sprintf("campaign: %d screened, %d survivors, %d reference runs, %d frontier rows, %.0f simulated core-ms",
		res.Screened, res.Survivors, refs, len(res.Frontier), work))
	return work, nil
}

// stageWork scans a stage store: the number of rows whose policy tests
// (each ran a NoTest reference too) and the simulated core-ms of every
// run of the stage, references included.
func stageWork(dir string, horizonMS float64) (refs int, coreMS float64, err error) {
	st, err := results.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	pol, mesh := -1, -1
	for i, c := range st.Schema() {
		switch c.Name {
		case "policy":
			pol = i
		case "mesh":
			mesh = i
		}
	}
	if pol < 0 || mesh < 0 {
		return 0, 0, fmt.Errorf("%s: no policy or mesh column", dir)
	}
	sc := st.Scan()
	for sc.Next() {
		var w, h int
		if _, err := fmt.Sscanf(sc.Str(mesh), "%dx%d", &w, &h); err != nil {
			return 0, 0, fmt.Errorf("%s: mesh %q: %w", dir, sc.Str(mesh), err)
		}
		runs := 1.0
		if sc.Str(pol) != "notest" {
			refs++
			runs = 2
		}
		coreMS += runs * float64(w*h) * horizonMS
	}
	return refs, coreMS, sc.Err()
}
