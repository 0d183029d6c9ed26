package sbst

import (
	"fmt"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// ExecState is the serializable state of an in-flight (or suspended)
// routine execution: the routine itself, the grant, progress, both
// compactor states, and the accumulated coverage products. Restoring it
// yields an Exec that continues mid-phase, cycle- and signature-exact.
type ExecState struct {
	Routine Routine             `json:"routine"`
	Core    int                 `json:"core"`
	Level   int                 `json:"level"`
	Point   tech.OperatingPoint `json:"point"`
	Started sim.Time            `json:"started"`

	Phase      int     `json:"phase"`
	CycleInPh  int64   `json:"cycle_in_ph"`
	MISR       uint32  `json:"misr"`
	Gen        uint32  `json:"gen"`
	MissSA     float64 `json:"miss_sa"`
	MissDelay  float64 `json:"miss_delay"`
	DoneWords  int     `json:"done_words"`
	FaultWords int     `json:"fault_words"`
}

// Snapshot captures the execution's full state.
func (e *Exec) Snapshot() ExecState {
	return ExecState{
		Routine: e.Routine, Core: e.Core, Level: e.Level, Point: e.Point, Started: e.Started,
		Phase: e.phase, CycleInPh: e.cycleInPh,
		MISR: e.misr.state, Gen: e.gen.state,
		MissSA: e.missSA, MissDelay: e.missDelay,
		DoneWords: e.doneWords, FaultWords: e.faultWords,
	}
}

// RestoreExec reconstructs an execution from a snapshot. It rejects
// states no execution can reach: a running phase with a zero response
// generator (xorshift32 never leaves zero, so every later word would be
// zero), a cycle position outside the current phase, miss products
// outside [0,1], and negative word counts.
func RestoreExec(st ExecState) (*Exec, error) {
	if err := st.Routine.Validate(); err != nil {
		return nil, fmt.Errorf("sbst: snapshot routine invalid: %w", err)
	}
	n := len(st.Routine.Phases)
	if st.Phase < 0 || st.Phase > n {
		return nil, fmt.Errorf("sbst: snapshot phase %d out of range [0,%d]", st.Phase, n)
	}
	cycles := int64(1) // a finished execution sits at cycle 0
	if st.Phase < n {
		cycles = st.Routine.Phases[st.Phase].Cycles
		if st.Gen == 0 {
			return nil, fmt.Errorf("sbst: snapshot of running phase %d has a zero response generator", st.Phase)
		}
	}
	if st.CycleInPh < 0 || st.CycleInPh >= cycles {
		return nil, fmt.Errorf("sbst: snapshot cycle %d outside [0,%d) of phase %d", st.CycleInPh, cycles, st.Phase)
	}
	if !(st.MissSA >= 0 && st.MissSA <= 1 && st.MissDelay >= 0 && st.MissDelay <= 1) {
		return nil, fmt.Errorf("sbst: snapshot miss products %v/%v outside [0,1]", st.MissSA, st.MissDelay)
	}
	if st.DoneWords < 0 || st.FaultWords < 0 {
		return nil, fmt.Errorf("sbst: snapshot word counts %d/%d negative", st.DoneWords, st.FaultWords)
	}
	e := &Exec{
		Routine: st.Routine, Core: st.Core, Level: st.Level, Point: st.Point, Started: st.Started,
		phase: st.Phase, cycleInPh: st.CycleInPh,
		misr:   MISR{state: st.MISR},
		missSA: st.MissSA, missDelay: st.MissDelay,
		doneWords: st.DoneWords, faultWords: st.FaultWords,
	}
	e.coveredSA = 1 - e.missSA
	e.coveredDelay = 1 - e.missDelay
	// A finished execution draws no more responses: it keeps the zero
	// generator and snapshots Gen as 0.
	if !e.Done() {
		e.gen = ResponseGenerator{state: st.Gen}
	}
	return e, nil
}
