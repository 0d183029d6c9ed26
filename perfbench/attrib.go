package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one CPU profile sample: its call stack as function
// names, leaf first, and its weight (CPU nanoseconds).
type profSample struct {
	stack  []string
	weight int64
}

// Layer names that are not potsim packages.
const (
	layerGC    = "gc"    // garbage collection and allocation
	layerJSON  = "json"  // encoding/json, whoever calls it
	layerOther = "other" // no potsim frame on the stack: scheduler, syscalls, net/http plumbing
)

// attribute splits CPU time into layers. A sample is walked from its
// leaf towards the root and lands on the first frame that decides it:
//   - a frame in potsim/internal/<pkg> counts to <pkg> (tech counts to
//     power: it supplies the leakage model the power layer evaluates);
//   - a frame in encoding/json counts to json;
//   - a garbage-collector or allocator frame counts to gc.
//
// Standard-library frames such as math therefore count to their nearest
// potsim caller, and a sample with no deciding frame counts to other.
// A potsim package outside cpuLayers counts to other too. The returned
// shares sum to 1 (empty when there is no weight).
func attribute(samples []profSample) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.weight <= 0 {
			continue
		}
		byLayer[layerOfStack(s.stack)] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(byLayer))
	for l, w := range byLayer {
		shares[l] = float64(w) / float64(total)
	}
	return shares
}

func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
		if isGC(fn) {
			return layerGC
		}
	}
	return layerOther
}

var knownLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range cpuLayers {
		m[l] = true
	}
	return m
}()

// layerOf maps a function name to the layer it belongs to, when it
// belongs to one by itself.
func layerOf(fn string) (string, bool) {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "potsim/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		if name == "tech" {
			name = "power"
		}
		if !knownLayer[name] {
			name = layerOther
		}
		return name, true
	}
	if pkg == "encoding/json" {
		return layerJSON, true
	}
	return "", false
}

// packageOf returns the import path of a Go function symbol such as
// "potsim/internal/sbst.(*MISR).Absorb" or "math.Exp".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFrames are the runtime entry points of allocation and collection.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.rawstring",
	"runtime.rawbyteslice", "runtime.concatstring", "runtime.slicebytetostring",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.wbBuf", "runtime.gcWriteBarrier", "runtime.bulkBarrier",
}

func isGC(fn string) bool {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cumulativeShare is the share of weight whose stack passes through any
// function with the given name prefix.
func cumulativeShare(samples []profSample, prefix string) float64 {
	var hit, total int64
	for _, s := range samples {
		if s.weight <= 0 {
			continue
		}
		total += s.weight
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, prefix) {
				hit += s.weight
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// parseProfile decodes a gzipped pprof CPU profile into samples. It
// reads only what attribution needs: sample stacks and weights,
// locations with their (inlined) lines, functions and the string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		nTypes    int
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := nTypes - 1 // cpu/nanoseconds follows samples/count
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a value")
		}
		ps := profSample{weight: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if si := funcNames[fid]; si >= 0 && si < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[si])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v; length-delimited fields arrive in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
