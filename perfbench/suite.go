package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"potsim/internal/expt"
	"potsim/internal/sim"
)

// suiteWorkers is the quick suite's cell parallelism, sized to a 2-CPU
// host.
const suiteWorkers = 2

// cellClock times the cells of one experiment from their first to their
// last epoch callback. Cells run on suiteWorkers goroutines at once.
type cellClock struct {
	mu     sync.Mutex
	first  time.Time // first epoch of any cell of the experiment
	start  map[int]time.Time
	last   map[int]time.Time
	epochs map[int]int64
}

func newCellClock() *cellClock {
	return &cellClock{start: map[int]time.Time{}, last: map[int]time.Time{}, epochs: map[int]int64{}}
}

func (c *cellClock) epoch(cell int, epoch int64) {
	now := time.Now()
	c.mu.Lock()
	if c.first.IsZero() {
		c.first = now
	}
	if _, ok := c.start[cell]; !ok {
		c.start[cell] = now
	}
	c.last[cell] = now
	c.epochs[cell] = epoch
	c.mu.Unlock()
}

// runSuite runs the quick paper suite, E1..E19 in order, with
// suiteWorkers workers and BaseSeed taken from the workload seed. A step
// is one pass over the suite (suite_s); a unit of work is one cell.
// Per-cell times vary by 20% between seeds, so they are per-layer
// numbers (expt.cell_max_s, batch.busy_frac), not steps. Set-up is the
// time from an experiment's Run call to its first integrated epoch.
func runSuite(e *env) error {
	o := e.out
	var firstDigest string
	e.start = time.Now()
	alloc0 := allocated()
	var last time.Duration
	for pass := 0; e.fits(last, pass); pass++ {
		trace := fmt.Sprintf("pass%d", pass)
		ps := e.tr.begin("suite.pass", nil, trace)
		t0 := time.Now()
		var clock *cellClock
		cells := 0
		r := expt.Runner{
			Quick:    true,
			Workers:  suiteWorkers,
			BaseSeed: e.seed,
			Progress: func(id string, done, total int) {
				if done == total {
					cells += total
				}
			},
			OnCellEpoch: func(id string, cell int, epoch int64, now sim.Time) { clock.epoch(cell, epoch) },
		}
		var rendered strings.Builder
		passFailed := false
		var epochs int64
		// The pass's host time is the sum of its experiments' times,
		// leaving out the probes between them.
		var passTime time.Duration
		for _, id := range expt.IDs() {
			clock = newCellClock()
			es := e.tr.begin("expt."+id, ps, trace)
			tExp := time.Now()
			res, err := r.Run(id)
			expDur := time.Since(tExp)
			es.end()
			e.hc.probe(1)
			passTime += expDur
			o.attempted++
			if err != nil {
				o.fail("suite pass %d %s: %v", pass, id, err)
				passFailed = true
				continue
			}
			rendered.WriteString(res.Render())
			if clock.first.IsZero() {
				o.fail("suite pass %d %s: no epoch observed", pass, id)
				passFailed = true
				continue
			}
			o.setupS = append(o.setupS, clock.first.Sub(tExp).Seconds())
			for cell, st := range clock.start {
				e.tr.add("expt.cell", es, trace, st, clock.last[cell])
				epochs += clock.epochs[cell]
			}
		}
		ps.end()
		last = time.Since(t0)
		o.addStep(passTime)
		o.addRate(float64(cells), passTime)
		o.units += float64(cells)
		if passFailed {
			continue
		}
		d := digest([]byte(rendered.String()))
		if firstDigest == "" {
			firstDigest = d
			o.setLayer("expt.cells", float64(cells))
			o.setLayer("core.epochs", float64(epochs))
			if err := checkGolden("suite-quick", e.seed, d); err != nil {
				o.fail("%v", err)
			}
			o.notes = append(o.notes, fmt.Sprintf("suite-quick: pass 0 took %.2f s for %d cells", passTime.Seconds(), cells))
		} else if d != firstDigest {
			o.fail("suite pass %d: tables digest %s differ from pass 0 (%s)", pass, d[:12], firstDigest[:12])
		}
	}
	o.allocBytes = allocated() - alloc0
	return nil
}
