package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Host-speed normalisation.
//
// The end-to-end times compare two versions of potsim measured at
// different times on a shared cloud host, and such a host's speed moves
// with the load of its other tenants: the same 64×64 run took 2.6 s at
// one time and 4.1 s at another, and ten 28 s runs of one workload
// spread by 40% between their first and third quartile. Every workload
// therefore runs a short probe of a fixed reference kernel after each
// of its steps, and its set-up times, step times and rates are scaled
// by the speed the run's probes measured (hostClock.speed): a run made
// while the host was 20% slower than the reference host reports the
// times it would have taken there. The kernel is self-contained, so a
// change to potsim moves the steps and not the probes.
//
// The kernel does the two kinds of work the simulator's profile is made
// of, in the proportions of the workload it probes: a bit-serial
// signature register with a data-dependent branch per bit, the shape of
// SBST's MISR, for the workload's SBST share of CPU, and exp/sqrt float
// math over an array, the shape of the aging, power and thermal models,
// for the rest. The two slow down differently when the host is busy: on
// a loaded host the bit-serial part ran at 0.53–0.75 of its idle speed
// and the float part at 0.38–0.45, and the campaign (91% SBST) slowed
// like the first, the daemon (no SBST) like the second. The array fits
// the L2 cache and each copy runs one untimed round first, so what the
// workload left in the caches does not change the probe's time.

const (
	refFloatLen = 1 << 13 // 64 KiB of float64 per copy
	refRounds   = 4       // timed rounds per probe
	refRoundNS  = 4.5e6   // length of one round on the reference host

	// Host time of one word of the bit-serial part and of one pass of
	// the float part on the reference host: a 2-vCPU KVM guest on an
	// Intel Xeon (Sapphire Rapids) with Go 1.24, idle. Normalised times
	// are in that host's seconds.
	refWordNS = 157.5
	refPassNS = 73750.0
)

// hostClock runs probes of width copies of the reference kernel in
// parallel, width being the number of CPUs the workload keeps busy,
// and keeps the speed factor each probe measured: the reference
// duration over the measured one, 1 on the reference host and below 1
// on a slower one. Each copy has an array of its own.
type hostClock struct {
	width   int
	words   int // bit-serial words per round
	passes  int // float passes per round
	nominal time.Duration
	floats  [][]float64
	sum     uint64 // kernel checksum of the first probe
	speeds  []float64
	bad     int // probes whose checksum differed from the first probe's
}

// newHostClock builds the kernel for a workload that keeps width CPUs
// busy and spends the share sbst of its CPU time in SBST, and runs one
// probe, which records the checksum every later probe must reproduce;
// it is not one of the run's probes.
func newHostClock(width int, sbst float64) *hostClock {
	h := &hostClock{
		width:  width,
		words:  int(math.Round(sbst * refRoundNS / refWordNS)),
		passes: int(math.Round((1 - sbst) * refRoundNS / refPassNS)),
	}
	h.nominal = time.Duration(refRounds * (float64(h.words)*refWordNS + float64(h.passes)*refPassNS))
	for w := 0; w < width; w++ {
		h.floats = append(h.floats, make([]float64, refFloatLen))
	}
	h.sum, _ = h.run()
	return h
}

// run executes one probe and returns its checksum and duration: the
// mean over the copies of their timed rounds.
func (h *hostClock) run() (uint64, time.Duration) {
	sums := make([]uint64, h.width)
	times := make([]time.Duration, h.width)
	var wg sync.WaitGroup
	for w := 0; w < h.width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = refRound(h.words, h.passes, h.floats[w])
			t0 := time.Now()
			for r := 0; r < refRounds; r++ {
				sums[w] = sums[w]*31 + refRound(h.words, h.passes, h.floats[w])
			}
			times[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	var sum uint64
	var d time.Duration
	for w := range sums {
		sum = sum*31 + sums[w]
		d += times[w]
	}
	return sum, d / time.Duration(h.width)
}

// probe runs n probes and records the speed factor of each.
func (h *hostClock) probe(n int) {
	for i := 0; i < n; i++ {
		sum, d := h.run()
		if sum != h.sum {
			h.bad++
		}
		h.speeds = append(h.speeds, float64(h.nominal)/float64(d))
	}
}

// speed is the run's host speed factor: the upper quartile of its
// probes' factors. Whatever else runs in the process while a probe does
// (the daemon's idle connections, the runtime's background work) only
// ever slows a probe down, and did so to a quarter of the probes or
// fewer; the median of a daemon run's probes moved by 4% from run to
// run on an idle host.
func (h *hostClock) speed() float64 { return quantile(h.speeds, 0.75) }

// check reports probes whose kernel result differed from the first
// probe's.
func (h *hostClock) check() error {
	if h.bad > 0 {
		return fmt.Errorf("%d of %d reference probes computed a different checksum", h.bad, len(h.speeds))
	}
	return nil
}

// refRound is one round of the reference kernel; it returns a checksum
// of everything it computed so that no part can be optimised away.
func refRound(words, passes int, xs []float64) uint64 {
	word := uint32(0x9e3779b9)
	var sig uint32
	for i := 0; i < words; i++ {
		word ^= word << 13
		word ^= word >> 17
		word ^= word << 5
		sig ^= word
		for b := 0; b < 32; b++ {
			if sig&1 != 0 {
				sig = sig>>1 ^ 0x82608edb
			} else {
				sig >>= 1
			}
		}
	}

	for i := range xs {
		xs[i] = float64(i%97) * 0.01
	}
	acc := 0.0
	for p := 0; p < passes; p++ {
		for i, x := range xs {
			y := x*0.999 + 0.25*math.Exp(-x) + 1e-3*math.Sqrt(x+1)
			xs[i] = y
			acc += y
		}
	}
	return uint64(sig)<<32 ^ math.Float64bits(acc)
}
