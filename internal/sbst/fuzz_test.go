package sbst

import (
	"encoding/json"
	"reflect"
	"testing"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// FuzzMISRSensitivity checks the signature register never aliases a
// single-word corruption of a short response stream (aliasing probability
// is ~2^-32, far below what fuzzing can reach).
func FuzzMISRSensitivity(f *testing.F) {
	f.Add(uint32(0xdeadbeef), uint32(0x1), uint8(3))
	f.Add(uint32(0), uint32(0xffffffff), uint8(1))
	f.Add(uint32(42), uint32(0x80000000), uint8(7))
	f.Fuzz(func(t *testing.T, seed, flip uint32, lenRaw uint8) {
		if flip == 0 {
			return
		}
		n := int(lenRaw%16) + 1
		words := make([]uint32, n)
		x := seed | 1
		for i := range words {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			words[i] = x
		}
		clean := NewMISR()
		clean.AbsorbAll(words)
		idx := int(seed) % n
		if idx < 0 {
			idx += n
		}
		words[idx] ^= flip
		dirty := NewMISR()
		dirty.AbsorbAll(words)
		if clean.Signature() == dirty.Signature() {
			t.Fatalf("aliased: seed=%x flip=%x n=%d", seed, flip, n)
		}
	})
}

// FuzzMISRMatchesBitSerial checks the table-driven register against the
// bit-serial reference over arbitrary start states and word streams.
func FuzzMISRMatchesBitSerial(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), []byte{})
	f.Add(uint32(0), []byte{1, 0, 0, 0})
	f.Add(uint32(0xdeadbeef), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 7})
	f.Fuzz(func(t *testing.T, start uint32, raw []byte) {
		m, ref := MISR{state: start}, start
		for len(raw) > 0 {
			var w uint32
			for i := 0; i < 4 && i < len(raw); i++ {
				w |= uint32(raw[i]) << (8 * i)
			}
			raw = raw[min(4, len(raw)):]
			m.Absorb(w)
			ref = bitSerialAbsorb(ref, w)
			if m.Signature() != ref {
				t.Fatalf("start %08x word %08x: Absorb gave %08x, bit-serial %08x", start, w, m.Signature(), ref)
			}
		}
	})
}

// FuzzRestoreExec feeds arbitrary checkpoint JSON to RestoreExec. It
// must never panic, and an accepted state must be a fixed point of
// Snapshot → RestoreExec → Snapshot.
func FuzzRestoreExec(f *testing.F) {
	rtn := Library()[1]
	pt := tech.Default().OperatingPoints(4)[2]
	live := NewExec(rtn, 3, 2, pt, 5*sim.Millisecond)
	live.CorruptResponses(2)
	live.Advance(40 * sim.Microsecond)
	finished := NewExec(Library()[0], 1, 0, pt, 0)
	finished.Advance(sim.Second)
	for _, st := range []ExecState{NewExec(rtn, 0, 1, pt, 0).Snapshot(), live.Snapshot(), finished.Snapshot()} {
		blob, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"routine":{"Phases":[{"Cycles":5,"Words":1}]},"gen":0}`))
	f.Add([]byte(`{"routine":{"Phases":[{"Cycles":5,"Words":1}]},"gen":9,"cycle_in_ph":5}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var st ExecState
		if json.Unmarshal(blob, &st) != nil {
			return
		}
		e, err := RestoreExec(st)
		if err != nil {
			return
		}
		s1 := e.Snapshot()
		r, err := RestoreExec(s1)
		if err != nil {
			t.Fatalf("snapshot of an accepted state rejected: %v", err)
		}
		if s2 := r.Snapshot(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("snapshot round trip drifted:\n%+v\n%+v", s1, s2)
		}
	})
}
