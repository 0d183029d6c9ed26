package aging

import (
	"math"
	"testing"
	"testing/quick"

	"potsim/internal/sim"
)

func mustTracker(t *testing.T, n int, p Params) *Tracker {
	t.Helper()
	tr, err := NewTracker(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func refState(util float64) CoreState {
	p := DefaultParams()
	return CoreState{Utilization: util, Voltage: p.VRef, TempK: p.TRef, Activity: 1}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.Exp = 1.5
	if bad.Validate() == nil {
		t.Error("Exp >= 1 accepted")
	}
	bad = DefaultParams()
	bad.AccelFactor = 0
	if bad.Validate() == nil {
		t.Error("zero AccelFactor accepted")
	}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, DefaultParams()); err == nil {
		t.Error("zero cores accepted")
	}
	bad := DefaultParams()
	bad.FailVth = -1
	if _, err := NewTracker(4, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestFreshCoreHasNoWear(t *testing.T) {
	tr := mustTracker(t, 2, DefaultParams())
	if tr.DeltaVth(0) != 0 || tr.Stress(0) != 0 {
		t.Error("fresh core shows wear")
	}
}

func TestStressGrowsWithUtilization(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e7 // seconds become ~4 months
	tr := mustTracker(t, 3, p)
	states := []CoreState{refState(0), refState(0.5), refState(1)}
	if err := tr.Advance(10*sim.Second, states); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaVth(0) != 0 {
		t.Errorf("unutilised core aged: %v", tr.DeltaVth(0))
	}
	if !(tr.DeltaVth(2) > tr.DeltaVth(1) && tr.DeltaVth(1) > 0) {
		t.Errorf("wear not monotone in utilization: %v, %v", tr.DeltaVth(1), tr.DeltaVth(2))
	}
}

func TestNBTIPowerLawSublinear(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e7
	tr := mustTracker(t, 1, p)
	states := []CoreState{refState(1)}
	if err := tr.Advance(5*sim.Second, states); err != nil {
		t.Fatal(err)
	}
	d1 := tr.DeltaVth(0)
	if err := tr.Advance(10*sim.Second, states); err != nil {
		t.Fatal(err)
	}
	d2 := tr.DeltaVth(0)
	// Doubling stress time should give 2^0.25 ~ 1.19x drift, not 2x.
	ratio := d2 / d1
	if math.Abs(ratio-math.Pow(2, p.Exp)) > 0.01 {
		t.Errorf("drift ratio = %v, want %v", ratio, math.Pow(2, p.Exp))
	}
}

func TestVoltageAndTemperatureAcceleration(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e7
	tr := mustTracker(t, 3, p)
	states := []CoreState{
		refState(1),
		{Utilization: 1, Voltage: p.VRef + 0.1, TempK: p.TRef, Activity: 1},
		{Utilization: 1, Voltage: p.VRef, TempK: p.TRef + 30, Activity: 1},
	}
	if err := tr.Advance(10*sim.Second, states); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaVth(1) <= tr.DeltaVth(0) {
		t.Errorf("higher voltage should age faster: %v vs %v", tr.DeltaVth(1), tr.DeltaVth(0))
	}
	if tr.DeltaVth(2) <= tr.DeltaVth(0) {
		t.Errorf("higher temperature should age faster: %v vs %v", tr.DeltaVth(2), tr.DeltaVth(0))
	}
}

func TestPowerGatedCoreDoesNotAge(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e7
	tr := mustTracker(t, 1, p)
	states := []CoreState{{Utilization: 1, Voltage: 0, TempK: 400, Activity: 1}}
	if err := tr.Advance(10*sim.Second, states); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaVth(0) != 0 {
		t.Errorf("gated core aged: %v", tr.DeltaVth(0))
	}
}

func TestStressClampedToOne(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e12
	tr := mustTracker(t, 1, p)
	if err := tr.Advance(100*sim.Second, []CoreState{refState(1)}); err != nil {
		t.Fatal(err)
	}
	if s := tr.Stress(0); s != 1 {
		t.Errorf("stress = %v, want clamp at 1", s)
	}
}

func TestUtilizationEwma(t *testing.T) {
	tr := mustTracker(t, 1, DefaultParams())
	for i := 1; i <= 1000; i++ {
		if err := tr.Advance(sim.Time(i)*sim.Millisecond, []CoreState{refState(0.8)}); err != nil {
			t.Fatal(err)
		}
	}
	if u := tr.Utilization(0); math.Abs(u-0.8) > 0.01 {
		t.Errorf("utilization EWMA = %v, want ~0.8", u)
	}
}

func TestMTTFBehaviour(t *testing.T) {
	p := DefaultParams()
	tr := mustTracker(t, 3, p)
	states := []CoreState{
		refState(1),
		{Utilization: 1, Voltage: p.VRef, TempK: p.TRef + 40, Activity: 1},
		{Utilization: 0, Voltage: 0, TempK: p.TRef, Activity: 0},
	}
	if err := tr.Advance(sim.Second, states); err != nil {
		t.Fatal(err)
	}
	ref := tr.MTTFHours(0)
	if math.Abs(ref-p.MTTFRefHours) > 1e-6*p.MTTFRefHours {
		t.Errorf("reference MTTF = %v, want %v", ref, p.MTTFRefHours)
	}
	if hot := tr.MTTFHours(1); hot >= ref {
		t.Errorf("hot core MTTF %v should be below reference %v", hot, ref)
	}
	if idle := tr.MTTFHours(2); !math.IsInf(idle, 1) {
		t.Errorf("gated core MTTF = %v, want +Inf", idle)
	}
}

func TestAdvanceErrors(t *testing.T) {
	tr := mustTracker(t, 2, DefaultParams())
	if err := tr.Advance(sim.Second, make([]CoreState, 3)); err == nil {
		t.Error("wrong state count accepted")
	}
	if err := tr.Advance(sim.Second, make([]CoreState, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Advance(sim.Millisecond, make([]CoreState, 2)); err == nil {
		t.Error("backwards time accepted")
	}
}

func TestCriticalityModel(t *testing.T) {
	m := DefaultCriticalityModel()
	// A fresh idle core exactly at its base interval has criticality 1.
	if c := m.Criticality(m.BaseInterval, 0, 0); math.Abs(c-1) > 1e-9 {
		t.Errorf("criticality at base interval = %v, want 1", c)
	}
	// Stress shortens the interval, raising criticality at equal elapsed.
	cFresh := m.Criticality(20*sim.Millisecond, 0, 0)
	cWorn := m.Criticality(20*sim.Millisecond, 1, 0)
	if cWorn <= cFresh {
		t.Errorf("worn core should rank higher: %v vs %v", cWorn, cFresh)
	}
	// Utilization also raises urgency (claim C4).
	cBusy := m.Criticality(20*sim.Millisecond, 0, 1)
	if cBusy <= cFresh {
		t.Errorf("busy core should rank higher: %v vs %v", cBusy, cFresh)
	}
	// Fully stressed + utilised core: interval divided by 1+2+1 = 4.
	ti := m.TargetInterval(1, 1)
	if math.Abs(float64(ti)-float64(m.BaseInterval)/4) > 1 {
		t.Errorf("target interval = %v, want base/4", ti)
	}
}

func TestCriticalityMonotoneInElapsed(t *testing.T) {
	m := DefaultCriticalityModel()
	prev := -1.0
	for ms := 0; ms <= 200; ms += 10 {
		c := m.Criticality(sim.Time(ms)*sim.Millisecond, 0.5, 0.5)
		if c < prev {
			t.Fatalf("criticality not monotone at %dms", ms)
		}
		prev = c
	}
}

// Property: with recovery disabled, stress is always within [0,1] and
// non-decreasing over time.
func TestStressMonotoneProperty(t *testing.T) {
	prop := func(utils [8]uint8) bool {
		p := DefaultParams()
		p.AccelFactor = 1e8
		p.RecoveryFrac = 0
		tr, err := NewTracker(1, p)
		if err != nil {
			return false
		}
		prev := 0.0
		now := sim.Time(0)
		for _, u := range utils {
			now += 100 * sim.Millisecond
			st := refState(float64(u) / 255)
			if err := tr.Advance(now, []CoreState{st}); err != nil {
				return false
			}
			s := tr.Stress(0)
			if s < prev-1e-12 || s < 0 || s > 1 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNBTIRecoveryDuringIdle(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e7
	p.RecoveryFrac = 0.3 // exaggerated for the test
	tr := mustTracker(t, 2, p)
	// Both cores stress hard for 10 s.
	busy := []CoreState{refState(1), refState(1)}
	if err := tr.Advance(10*sim.Second, busy); err != nil {
		t.Fatal(err)
	}
	before0, before1 := tr.DeltaVth(0), tr.DeltaVth(1)
	if before0 != before1 {
		t.Fatal("identical histories should have identical wear")
	}
	// Core 0 idles (powered but unutilised), core 1 keeps working.
	mixed := []CoreState{refState(0), refState(1)}
	if err := tr.Advance(20*sim.Second, mixed); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaVth(0) >= before0 {
		t.Errorf("idle core did not recover: %v -> %v", before0, tr.DeltaVth(0))
	}
	if tr.DeltaVth(1) <= before1 {
		t.Errorf("busy core did not keep aging: %v -> %v", before1, tr.DeltaVth(1))
	}
	// Recovery never goes below zero.
	long := []CoreState{refState(0), refState(0)}
	if err := tr.Advance(10000*sim.Second, long); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaVth(0) < 0 || tr.Stress(0) < 0 {
		t.Error("recovery drove wear negative")
	}
}

func TestRecoveryFracValidation(t *testing.T) {
	p := DefaultParams()
	p.RecoveryFrac = 1
	if p.Validate() == nil {
		t.Error("RecoveryFrac=1 accepted")
	}
	p.RecoveryFrac = -0.1
	if p.Validate() == nil {
		t.Error("negative RecoveryFrac accepted")
	}
}

// TestStressCacheMatchesFormula checks the per-core stress cached by
// AdvanceRange and Restore against the DeltaVth formula it stands for,
// bit for bit, across busy, recovering, gated, hot and cold cores, and
// that a range-split integration caches the same values as the serial
// one.
func TestStressCacheMatchesFormula(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e11
	const n = 5
	formula := func(tr *Tracker, id int) float64 {
		return math.Min(math.Max(tr.DeltaVth(id)/p.FailVth, 0), 1)
	}
	check := func(name string, tr *Tracker) {
		t.Helper()
		for id := 0; id < n; id++ {
			if got, want := tr.Stress(id), formula(tr, id); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: core %d Stress %v, formula %v", name, id, got, want)
			}
		}
	}
	serial, split := mustTracker(t, n, p), mustTracker(t, n, p)
	check("fresh", serial)
	for id := 0; id < n; id++ {
		if serial.Stress(id) != 0 {
			t.Fatalf("fresh core %d reports stress %v", id, serial.Stress(id))
		}
	}
	hot := CoreState{Utilization: 1, Voltage: 0.95, TempK: 375, Activity: 1.2}
	cold := CoreState{Utilization: 0.8, Voltage: 0.6, TempK: 300, Activity: 0.5}
	idle := CoreState{Utilization: 0, Voltage: p.VRef, TempK: p.TRef}
	gated := CoreState{TempK: 310}
	half := refState(0.5)
	schedule := [][n]CoreState{
		{hot, cold, hot, gated, half},
		{hot, cold, cold, gated, half},
		{hot, idle, idle, hot, half},
		{idle, cold, idle, gated, idle},
		{hot, cold, idle, idle, half},
	}
	for k, row := range schedule {
		now := sim.Time(k+1) * 4 * sim.Millisecond
		states := row[:]
		if err := serial.Advance(now, states); err != nil {
			t.Fatal(err)
		}
		dt, err := split.BeginAdvance(now, states)
		if err != nil {
			t.Fatal(err)
		}
		split.AdvanceRange(dt, states, 3, n)
		split.AdvanceRange(dt, states, 0, 3)
		check("serial", serial)
		for id := 0; id < n; id++ {
			if serial.Stress(id) != split.Stress(id) {
				t.Errorf("step %d core %d: split Stress %v, serial %v", k, id, split.Stress(id), serial.Stress(id))
			}
		}
	}
	saturated, partial := 0, 0
	for id := 0; id < n; id++ {
		switch s := serial.Stress(id); {
		case s == 1:
			saturated++
		case s > 0:
			partial++
		}
	}
	if saturated == 0 || partial == 0 {
		t.Fatalf("schedule exercised %d saturated and %d partial cores, want both", saturated, partial)
	}

	restored := mustTracker(t, n, p)
	if err := restored.Restore(serial.Snapshot()); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
	for id := 0; id < n; id++ {
		if restored.Stress(id) != serial.Stress(id) {
			t.Errorf("core %d: restored Stress %v, live %v", id, restored.Stress(id), serial.Stress(id))
		}
	}
}
