package sbst

import (
	"encoding/json"
	"math"
	"testing"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// A suspended mid-phase execution must restore cycle- and
// signature-exact: running the original and the restored copy to
// completion yields identical signatures, coverage and word counts.
func TestExecSnapshotMidPhaseRoundTrip(t *testing.T) {
	rtn := Library()[1] // functional-full: 5 phases
	pt := tech.Default().OperatingPoints(4)[2]
	e := NewExec(rtn, 3, 2, pt, 5*sim.Millisecond)
	e.CorruptResponses(2) // pending fault perturbation must survive too
	// Advance partway into the routine (not on a phase boundary).
	if done := e.Advance(40 * sim.Microsecond); done {
		t.Fatal("routine finished too early for a mid-phase test")
	}
	if e.Progress() == 0 {
		t.Fatal("routine made no progress")
	}

	blob, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreExec(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Progress() != e.Progress() || r.CurrentActivity() != e.CurrentActivity() {
		t.Fatalf("restored progress %v/%v differs from %v/%v",
			r.Progress(), r.CurrentActivity(), e.Progress(), e.CurrentActivity())
	}
	// Drive both to completion in identical small steps.
	for !e.Done() || !r.Done() {
		d1 := e.Advance(30 * sim.Microsecond)
		d2 := r.Advance(30 * sim.Microsecond)
		if d1 != d2 {
			t.Fatal("completion drift between original and restored exec")
		}
	}
	if e.misr.Signature() != r.misr.Signature() {
		t.Fatalf("signatures diverged: %08x vs %08x", e.misr.Signature(), r.misr.Signature())
	}
	if e.CoverageSA() != r.CoverageSA() || e.CoverageDelay() != r.CoverageDelay() {
		t.Fatal("coverage diverged")
	}
	if e.doneWords != r.doneWords || e.SignatureMatches() != r.SignatureMatches() {
		t.Fatal("word counts or signature verdict diverged")
	}
}

func TestRestoreExecValidation(t *testing.T) {
	if _, err := RestoreExec(ExecState{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	st := ExecState{Routine: Library()[0], Phase: 99}
	if _, err := RestoreExec(st); err == nil {
		t.Fatal("out-of-range phase accepted")
	}
	// A completed exec (phase == len) restores without a generator.
	done := ExecState{Routine: Library()[0], Phase: len(Library()[0].Phases), MissSA: 0.2, MissDelay: 0.5, MISR: 0xDEADBEEF}
	e, err := RestoreExec(done)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Done() || e.CoverageSA() != 0.8 {
		t.Fatalf("completed exec restored wrong: done=%v covSA=%v", e.Done(), e.CoverageSA())
	}

	// States no execution can reach must not restore into a running one.
	pt := tech.Default().OperatingPoints(4)[2]
	valid := NewExec(Library()[1], 3, 2, pt, 0)
	valid.Advance(40 * sim.Microsecond)
	base := valid.Snapshot()
	if _, err := RestoreExec(base); err != nil {
		t.Fatalf("live snapshot rejected: %v", err)
	}
	phaseCycles := base.Routine.Phases[base.Phase].Cycles
	for name, mutate := range map[string]func(*ExecState){
		"zero generator mid-run":  func(st *ExecState) { st.Gen = 0 },
		"negative cycle":          func(st *ExecState) { st.CycleInPh = -1 },
		"cycle at phase end":      func(st *ExecState) { st.CycleInPh = phaseCycles },
		"cycle past phase end":    func(st *ExecState) { st.CycleInPh = phaseCycles + 1000 },
		"finished with cycles":    func(st *ExecState) { st.Phase = len(st.Routine.Phases); st.CycleInPh = 7 },
		"NaN stuck-at miss":       func(st *ExecState) { st.MissSA = math.NaN() },
		"NaN delay miss":          func(st *ExecState) { st.MissDelay = math.NaN() },
		"stuck-at miss above one": func(st *ExecState) { st.MissSA = 1.5 },
		"delay miss below zero":   func(st *ExecState) { st.MissDelay = -0.1 },
		"negative fault words":    func(st *ExecState) { st.FaultWords = -1 },
		"negative done words":     func(st *ExecState) { st.DoneWords = -512 },
		"infinite stuck-at miss":  func(st *ExecState) { st.MissSA = math.Inf(1) },
		"minimum int cycle":       func(st *ExecState) { st.CycleInPh = math.MinInt64 },
	} {
		st := base
		mutate(&st)
		if _, err := RestoreExec(st); err == nil {
			t.Errorf("%s: impossible state accepted", name)
		}
	}
}

// A finished execution snapshots the generator state it ended with; a
// finished execution restored from a snapshot has none and snapshots
// Gen as zero.
func TestExecSnapshotGenOfFinishedRun(t *testing.T) {
	pt := tech.Default().OperatingPoints(4)[2]
	e := NewExec(Library()[0], 1, 3, pt, 0)
	if !e.Advance(sim.Second) {
		t.Fatal("routine did not finish")
	}
	var want uint32
	g := NewResponseGenerator(0, 1, 3)
	for i := 0; i < Library()[0].Phases[1].Words; i++ {
		want = g.Next()
	}
	st := e.Snapshot()
	if st.Gen != want {
		t.Fatalf("finished live run snapshots Gen %08x, want last generator state %08x", st.Gen, want)
	}
	r, err := RestoreExec(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Gen; got != 0 {
		t.Fatalf("restored finished run snapshots Gen %08x, want 0", got)
	}
}
