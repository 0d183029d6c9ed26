package main

import "testing"

// TestHostClock checks that probes of both widths and of the extreme
// mixes reproduce the first probe's checksum and give positive speeds.
func TestHostClock(t *testing.T) {
	for _, c := range []struct {
		width int
		sbst  float64
	}{{1, 0.67}, {2, 0}, {2, 1}} {
		h := newHostClock(c.width, c.sbst)
		h.probe(2)
		if err := h.check(); err != nil {
			t.Errorf("width %d, sbst %g: %v", c.width, c.sbst, err)
		}
		if len(h.speeds) != 2 || h.speeds[0] <= 0 || h.speeds[1] <= 0 || h.speed() <= 0 {
			t.Errorf("width %d, sbst %g: speeds %v", c.width, c.sbst, h.speeds)
		}
	}
}
