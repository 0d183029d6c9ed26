package core

import (
	"testing"

	"potsim/internal/noc"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
)

// recordingPolicy wraps the system's policy and records, for each Plan
// call, the occupancy the system had and the decisions returned.
type recordingPolicy struct {
	scheduler.Policy
	s    *System
	busy int    // cores running or testing when Plan was called
	free []bool // per core: free when Plan was called
	decs []scheduler.Decision
}

func (p *recordingPolicy) Plan(now sim.Time, cores []scheduler.CoreSnapshot, slack float64) []scheduler.Decision {
	p.busy = 0
	p.free = p.free[:0]
	for id := range p.s.cores {
		st := p.s.cores[id].state
		if st == coreRunning || st == coreTesting {
			p.busy++
		}
		p.free = append(p.free, st == coreFree)
	}
	out := p.Policy.Plan(now, cores, slack)
	p.decs = append(p.decs[:0], out...)
	return out
}

// Each fresh test launch stalls for the program delivery latency at the
// interconnect load that counts every launch and resume made before it
// in the same epoch: the value a full occupancy scan at that point gives.
func TestPlanTestsLaunchLatencyTracksUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 200 * sim.Millisecond
	cfg.MeanInterarrival = sim.Millisecond // heavy arrivals preempt tests
	cfg.MapperName = "FF"                  // test-blind mapper preempts freely
	cfg.AbortPolicy = sbst.ResumePhase     // preempted tests come back as resumes
	cfg.Seed = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingPolicy{Policy: s.policy, s: s}
	s.policy = rec
	checked, afterLaunch, afterResume := 0, 0, 0
	s.OnEpoch(func(_ int64, now sim.Time) {
		busy, launched, resumed := rec.busy, make(map[int]bool), 0
		for _, d := range rec.decs {
			if !rec.free[d.Core] || launched[d.Core] {
				continue // planTests skips a core that is not free
			}
			launched[d.Core] = true
			busy++
			cr := &s.cores[d.Core]
			if cr.test == nil || cr.test.Started != now {
				resumed++ // a resumed execution needs no delivery
				continue
			}
			util := 0.5 * float64(busy) / float64(len(s.cores))
			want := now + s.txn.Latency(noc.Coord{}, s.grid.Coord(d.Core), 64, util)
			if cr.testStallUntil != want {
				t.Fatalf("t=%v core %d: stall until %d ns, want %d ns at utilization %v",
					now, d.Core, int64(cr.testStallUntil), int64(want), util)
			}
			checked++
			if len(launched) > resumed+1 {
				afterLaunch++
			}
			if resumed > 0 {
				afterResume++
			}
		}
		rec.decs = rec.decs[:0]
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %d launch latencies: %d after another launch, %d after a resume in the same epoch",
		checked, afterLaunch, afterResume)
	if afterLaunch == 0 || afterResume == 0 {
		t.Fatal("the run did not exercise launches following launches and resumes")
	}
}
