// Package sbst models software-based self-test (SBST) routines: phased
// test programs with per-phase cycle counts, switching activity and fault
// coverage, executed at a chosen DVFS operating point, compacting their
// test responses into a MISR signature that is compared against a golden
// value. Execution supports the non-intrusive abort the paper requires:
// a test yields its core immediately when the mapper claims it.
package sbst

import "hash/crc32"

// MISR is a 32-bit multiple-input signature register: a Galois LFSR that
// absorbs one response word per clock. It is the classical response
// compactor used by SBST and logic BIST; a fault that flips any response
// bit yields a different final signature except for aliasing, whose
// probability is ~2^-32.
type MISR struct {
	state uint32
}

// DefaultPolynomial is the CRC-32/IEEE polynomial in Galois (reflected)
// form, a primitive polynomial suitable for signature analysis.
const DefaultPolynomial uint32 = crc32.IEEE

// misrSeed is the all-ones register seed.
const misrSeed uint32 = 0xFFFFFFFF

// NewMISR returns a signature register seeded with all-ones (the
// conventional non-zero seed) using the default polynomial.
func NewMISR() *MISR {
	return &MISR{state: misrSeed}
}

// Reset restores the seed state.
func (m *MISR) Reset() { m.state = misrSeed }

// Absorb folds one test-response word into the signature. The 32
// single-bit shifts of the LFSR are the reflected CRC-32/IEEE update of
// the word's four bytes; the slicing-by-4 tables apply the four byte
// steps as independent lookups, so the result equals the bit-serial
// register exactly.
//
//potlint:allocfree
func (m *MISR) Absorb(word uint32) {
	s := m.state ^ word
	m.state = misrTables[3][byte(s)] ^ misrTables[2][byte(s>>8)] ^
		misrTables[1][byte(s>>16)] ^ misrTables[0][s>>24]
}

// misrTables[k][b] is the register holding b shifted 8(k+1) times:
// misrTables[0] is the CRC-32/IEEE byte table, and each further table
// shifts eight more. Shifts are linear over GF(2), so the four bytes of
// a word shift independently and their results XOR together.
var misrTables = func() (t [4][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < len(t); k++ {
		for b, v := range t[k-1] {
			t[k][b] = t[0][byte(v)] ^ v>>8
		}
	}
	return t
}()

// AbsorbAll folds a sequence of response words.
func (m *MISR) AbsorbAll(words []uint32) {
	for _, w := range words {
		m.Absorb(w)
	}
}

// Signature returns the current signature value.
func (m *MISR) Signature() uint32 { return m.state }

// ResponseGenerator produces the deterministic pseudo-random test-response
// stream of a fault-free core executing a routine phase: an xorshift32
// generator seeded from the routine and phase identities, mirroring how
// SBST responses are a fixed function of the test program.
type ResponseGenerator struct {
	state uint32
}

// NewResponseGenerator seeds the response stream for (routine, phase, level).
// Different levels exercise different critical paths, so responses differ.
func NewResponseGenerator(routineID, phase, level int) ResponseGenerator {
	seed := uint32(2166136261)
	for _, v := range []int{routineID, phase, level} {
		seed ^= uint32(v + 1)
		seed *= 16777619
	}
	if seed == 0 {
		seed = 1
	}
	return ResponseGenerator{state: seed}
}

// Next returns the next fault-free response word.
func (g *ResponseGenerator) Next() uint32 {
	x := g.state
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	g.state = x
	return x
}

// GoldenSignature computes the fault-free signature of a routine phase at
// a level by absorbing words response words.
func GoldenSignature(routineID, phase, level, words int) uint32 {
	g := NewResponseGenerator(routineID, phase, level)
	m := NewMISR()
	for i := 0; i < words; i++ {
		m.Absorb(g.Next())
	}
	return m.Signature()
}
