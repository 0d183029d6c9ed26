package service

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeSpec fuzzes the daemon's trust boundary: every submission
// body passes DecodeSpec, Validate and Fingerprint before it costs a
// queue slot. None of them may panic, Fingerprint must fail exactly
// when Validate does, and an accepted spec must fingerprint the same
// twice and after a marshal/decode round trip (the fingerprint is the
// cache and single-flight key, so any drift would split or merge jobs).
func FuzzDecodeSpec(f *testing.F) {
	seeds := []string{
		`{"kind": "suite", "experiment": "E1"}`,
		`{"kind": "suite", "experiment": " e7 ", "quick": true, "baseSeed": 3, "guardPolicy": "LOG"}`,
		`{"kind": "sim", "config": {"Horizon": 20000000, "Seed": 7}}`,
		`{"kind": "sim", "config": null}`,
		`{`,
		`{"kind": "sim", "bogus": 1}`,
		`{"kind": "warp"}`,
		`{"kind": "suite", "experiment": "E99"}`,
		`{"kind": "suite", "experiment": "E1", "guardPolicy": "yolo"}`,
		`{"kind": "suite", "experiment": "E1", "config": {}}`,
		`{"kind": "sim", "experiment": "E1"}`,
		`{"kind": "sim", "config": {"Nope": 1}}`,
		`{"kind": "sim", "config": {"Width": -4}}`,
	}
	seeds = append(seeds, trailingBodies...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeSpec(body)
		if err != nil {
			return
		}
		verr := spec.Validate()
		fp, ferr := spec.Fingerprint()
		if (verr == nil) != (ferr == nil) {
			t.Fatalf("Validate err %v but Fingerprint err %v for %q", verr, ferr, body)
		}
		if verr != nil {
			return
		}
		if again, err := spec.Fingerprint(); err != nil || again != fp {
			t.Fatalf("fingerprint not stable: %q then %q (err %v) for %q", fp, again, err, body)
		}
		blob, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := DecodeSpec(blob)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", blob, err)
		}
		if got, err := back.Fingerprint(); err != nil || got != fp {
			t.Fatalf("round trip changed fingerprint %q -> %q (err %v): %q -> %s", fp, got, err, body, blob)
		}
	})
}
