package sbst

import (
	"math/rand"
	"testing"

	"potsim/internal/tech"
)

// bitSerialAbsorb is the MISR step as a shift loop: 32 single-bit
// Galois shifts of DefaultPolynomial. It is the reference the
// table-driven Absorb must reproduce bit for bit.
func bitSerialAbsorb(state, word uint32) uint32 {
	state ^= word
	for i := 0; i < 32; i++ {
		if state&1 != 0 {
			state = (state >> 1) ^ DefaultPolynomial
		} else {
			state >>= 1
		}
	}
	return state
}

func TestMISRMatchesBitSerialReference(t *testing.T) {
	// Long response streams, chained through the register.
	g := NewResponseGenerator(7, 3, 5)
	m, ref := NewMISR(), uint32(misrSeed)
	for i := 0; i < 150_000; i++ {
		w := g.Next()
		m.Absorb(w)
		ref = bitSerialAbsorb(ref, w)
		if m.Signature() != ref {
			t.Fatalf("word %d (%08x): Absorb gave %08x, bit-serial %08x", i, w, m.Signature(), ref)
		}
	}
	// Every single-bit word and the zero word, from random states.
	rng := rand.New(rand.NewSource(1))
	words := []uint32{0}
	for bit := 0; bit < 32; bit++ {
		words = append(words, 1<<bit)
	}
	for _, w := range words {
		for k := 0; k < 64; k++ {
			start := rng.Uint32()
			m := MISR{state: start}
			m.Absorb(w)
			if want := bitSerialAbsorb(start, w); m.Signature() != want {
				t.Fatalf("state %08x word %08x: Absorb gave %08x, bit-serial %08x", start, w, m.Signature(), want)
			}
		}
	}
}

// pinnedSignatures holds, for every routine of Library() followed by
// SegmentLibrary(Library(), 100_000), every level 0..7 and every phase
// in order, two values: GoldenSignature of the phase alone, then the
// signature of the phase prefix ending there (the value
// SignatureMatches compares against). They were generated with the
// bit-serial shift-loop Absorb, before the table-driven register
// replaced it, and must never change: every golden signature of a
// simulation run derives from them.
var pinnedSignatures = []uint32{
	0xecdafc7e, 0xecdafc7e, 0x0190bac3, 0x62e54c6d, 0xddba9029, 0xddba9029, 0x104f9efa, 0x4f79ffe7,
	0x9d6abd33, 0x9d6abd33, 0x44e43c62, 0xf3aaab1b, 0xd6cc8bfc, 0xd6cc8bfc, 0x81beaa9f, 0x0a66d40c,
	0x8e60edbc, 0x8e60edbc, 0x54056fcc, 0x5a001325, 0x63b53a39, 0x63b53a39, 0xdd1ffc1a, 0x8330927d,
	0x0aafdcad, 0x0aafdcad, 0x02300c73, 0x1f225ec5, 0x6de0f840, 0x6de0f840, 0xf661cbc8, 0x5f07594e,
	0x8cb09192, 0x8cb09192, 0x3ef2dc13, 0xf1e1b9e9, 0x7ee86764, 0xe0d3b519, 0xcdcaf394, 0x374aa677,
	0x60cb2b95, 0xc867582d, 0x581fb1a0, 0x581fb1a0, 0xf45228eb, 0xa0a1174e, 0xfc9337bb, 0x274ba328,
	0x92174ad9, 0x9f1b2a94, 0x2409c1e8, 0xaf674380, 0xba6e48dd, 0xba6e48dd, 0x67fd1b0c, 0x89fef9a8,
	0x24886d1d, 0x108dbb4b, 0x5dc9296e, 0x8e833886, 0xb8d647ca, 0xc60458dd, 0x95eb562a, 0x95eb562a,
	0x4bb9636c, 0xeac53b10, 0x2c3f83cc, 0x1263e677, 0x5b86df7a, 0x3ef95a30, 0x439ccbf4, 0x582f1ffa,
	0x3744978e, 0x3744978e, 0xd16264a8, 0x72e93219, 0x075b8ab9, 0x5cb5365f, 0x3fffe3b6, 0xba55e879,
	0x64fc6c6c, 0xb4de2ad4, 0x03c57db0, 0x03c57db0, 0xc11d03be, 0x43410d71, 0xe571aa76, 0x55557e7f,
	0x09d8fd12, 0x0e4e39a4, 0x1f604911, 0x00b45cdc, 0x80106086, 0x80106086, 0x0194a93c, 0x46c63913,
	0x685cffd9, 0xdb2d4778, 0x31585fe4, 0x8d45611c, 0xb5667f1e, 0x3e931100, 0xd6fbb0c1, 0xd6fbb0c1,
	0x47d63214, 0x971b52ac, 0x41197ea4, 0x4ef00fe1, 0x9166e166, 0xa42ba8be, 0xba8c930e, 0x023b7697,
	0x102b54fc, 0x102b54fc, 0x96eb4278, 0xe4587a40, 0xf3fdda6b, 0xf3fdda6b, 0x9bb8d0d0, 0xd2cd6221,
	0xc0dd9968, 0xc0dd9968, 0xd4679329, 0xa9fdfb38, 0xc46b949e, 0xc46b949e, 0x836c8701, 0xf2838db8,
	0xd0c4f05a, 0xd0c4f05a, 0xb0c12b11, 0x8f184f6d, 0x7976ac05, 0x7976ac05, 0xf57478bb, 0x87d418cd,
	0x851f5d6c, 0x851f5d6c, 0x20cfbde8, 0xce9a9929, 0x5ee2dd04, 0x5ee2dd04, 0x5fe51a8a, 0x436a2b2a,
	0xecdafc7e, 0xecdafc7e, 0xddba9029, 0xddba9029, 0x9d6abd33, 0x9d6abd33, 0xd6cc8bfc, 0xd6cc8bfc,
	0x8e60edbc, 0x8e60edbc, 0x63b53a39, 0x63b53a39, 0x0aafdcad, 0x0aafdcad, 0x6de0f840, 0x6de0f840,
	0xb8e474d8, 0xb8e474d8, 0x5ff7d57f, 0x5ff7d57f, 0x0d9dc51d, 0x0d9dc51d, 0x381aca36, 0x381aca36,
	0x59d681c7, 0x59d681c7, 0x3a6a1c0e, 0x3a6a1c0e, 0xbb44c268, 0xbb44c268, 0x3e3313be, 0x3e3313be,
	0xc373fec1, 0xc373fec1, 0x93225286, 0x93225286, 0x318d9322, 0x318d9322, 0xb314b807, 0xb314b807,
	0x9e2cf310, 0x9e2cf310, 0x862366c0, 0x862366c0, 0x928c0204, 0x928c0204, 0x9391a6d1, 0x9391a6d1,
	0xc9bcf4a0, 0xc9bcf4a0, 0xf7a28b65, 0xf7a28b65, 0x21d3d961, 0x21d3d961, 0x48fbe8f1, 0x48fbe8f1,
	0x082bc5eb, 0x082bc5eb, 0x438df324, 0x438df324, 0xe78594ea, 0xe78594ea, 0x2542f2ce, 0x2542f2ce,
	0xb2bfde3b, 0xb2bfde3b, 0xbb3d252e, 0xbb3d252e, 0xb11f688b, 0xb11f688b, 0x9d4ae557, 0x9d4ae557,
	0xfc86aea6, 0xfc86aea6, 0x7e08c670, 0x7e08c670, 0xa0af3911, 0xa0af3911, 0xb15254d2, 0xb15254d2,
	0x2efeba25, 0x2efeba25, 0xcabf84e4, 0xcabf84e4, 0x6d3bebaa, 0x6d3bebaa, 0x21f345d4, 0x21f345d4,
	0xced2cfec, 0xced2cfec, 0xe2fe3eb2, 0xe2fe3eb2, 0xeebed77d, 0xeebed77d, 0xf91d9557, 0xf91d9557,
	0x0b0c4aad, 0x0b0c4aad, 0x0f81289f, 0x0f81289f, 0x3528d3ed, 0x3528d3ed, 0xf9b93af3, 0xf9b93af3,
	0xbd61a9e4, 0xbd61a9e4, 0xe4cf4725, 0xe4cf4725, 0x881ab579, 0x881ab579, 0x43702f40, 0x43702f40,
	0xd9b94096, 0xd9b94096, 0x6e6cb9fe, 0x6e6cb9fe, 0x0348fad3, 0x0348fad3, 0x4309e072, 0x4309e072,
	0x6c096e85, 0x6c096e85, 0xca4ebdc5, 0xca4ebdc5, 0x4eb1c424, 0x4eb1c424, 0xa28f6b65, 0xa28f6b65,
	0x54e9b99f, 0x54e9b99f, 0xf3aebafe, 0xf3aebafe, 0x11d02a93, 0x11d02a93, 0xe0b8b2f0, 0xe0b8b2f0,
	0x92193739, 0x92193739, 0x46a55e88, 0x46a55e88, 0x91f348af, 0x91f348af, 0xb03f3730, 0xb03f3730,
	0xa07210d4, 0xa07210d4, 0x54bbe871, 0x54bbe871, 0xbef3f171, 0xbef3f171, 0x40fbd880, 0x40fbd880,
	0xa65bc95c, 0xa65bc95c, 0x6679ad62, 0x6679ad62, 0xa6d71246, 0xa6d71246, 0x553ea40b, 0x553ea40b,
	0x69dffaff, 0x69dffaff, 0x27cf6681, 0x27cf6681, 0x208d2cf0, 0x208d2cf0, 0xe7be03df, 0xe7be03df,
	0xbffe7417, 0xbffe7417, 0x637132ce, 0x637132ce, 0xd73805c1, 0xd73805c1, 0xabac45ec, 0xabac45ec,
	0xa67674c0, 0xa67674c0, 0x865c28c2, 0x865c28c2, 0x31eebc4e, 0x31eebc4e, 0x4c23b329, 0x4c23b329,
	0xf89df764, 0xf89df764, 0xa38de228, 0xa38de228, 0x86286d31, 0x86286d31, 0x45ae97df, 0x45ae97df,
}

func TestGoldenSignaturesPinned(t *testing.T) {
	routines := append(Library(), SegmentLibrary(Library(), 100_000)...)
	k := 0
	for _, r := range routines {
		for level := 0; level < 8; level++ {
			e := NewExec(r, 0, level, tech.OperatingPoint{}, 0)
			for i, ph := range r.Phases {
				if k+2 > len(pinnedSignatures) {
					t.Fatalf("pinned table too short at %s L%d phase %d", r.Name, level, i)
				}
				if got := GoldenSignature(r.ID, i, level, ph.Words); got != pinnedSignatures[k] {
					t.Errorf("%s L%d phase %d: GoldenSignature %08x, pinned %08x", r.Name, level, i, got, pinnedSignatures[k])
				}
				e.finishPhase(&r.Phases[i])
				if got := e.misr.Signature(); got != pinnedSignatures[k+1] || !e.SignatureMatches() {
					t.Errorf("%s L%d prefix %d: signature %08x, pinned %08x", r.Name, level, i+1, got, pinnedSignatures[k+1])
				}
				k += 2
			}
		}
	}
	if k != len(pinnedSignatures) {
		t.Fatalf("checked %d pinned values, table has %d", k, len(pinnedSignatures))
	}
}
