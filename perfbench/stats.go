package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mix derives an independent 64-bit value from a seed and a stream
// label, so every generated input of a workload is a pure function of
// the workload seed.
func mix(seed uint64, stream ...uint64) uint64 {
	z := splitmix(seed)
	for _, s := range stream {
		z = splitmix(z ^ splitmix(s))
	}
	return z
}

// splitmix is the splitmix64 output function.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a derived value to [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// digest is the hex SHA-256 of the concatenated parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
