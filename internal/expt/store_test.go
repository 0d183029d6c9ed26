package expt

import (
	"os"
	"path/filepath"
	"testing"

	"potsim/internal/results"
)

// TestStoreExportByteIdenticalAcrossWorkersShards is the CSV-as-export
// contract: a result store written by the quick suite exports CSV
// byte-identical to the table's direct rendering — the seed golden —
// at every workers x shards combination, so demoting CSV to an export
// format changes no bytes anywhere.
func TestStoreExportByteIdenticalAcrossWorkersShards(t *testing.T) {
	combos := []struct{ workers, shards int }{
		{1, 0}, {2, 2}, {4, 3},
	}
	golden, err := (&Runner{Quick: true, Workers: 1}).Run("E1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range combos {
		res, err := (&Runner{Quick: true, Workers: c.workers, Shards: c.shards}).Run("E1")
		if err != nil {
			t.Fatal(err)
		}
		root := t.TempDir()
		if err := SaveStore(root, res); err != nil {
			t.Fatal(err)
		}
		exported, err := results.ExportCSV(StorePath(root, "E1"))
		if err != nil {
			t.Fatal(err)
		}
		if string(exported) != res.Table.CSV() {
			t.Errorf("workers=%d shards=%d: store export diverged from direct rendering\n-- export --\n%s\n-- direct --\n%s",
				c.workers, c.shards, exported, res.Table.CSV())
		}
		if string(exported) != golden.Table.CSV() {
			t.Errorf("workers=%d shards=%d: store export diverged from serial golden", c.workers, c.shards)
		}
		// The reconstructed table renders identically too (headers,
		// alignment, title).
		tbl, meta, err := results.ReadTable(StorePath(root, "E1"))
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := *tbl
		tbl2.Title = res.Table.Title
		if tbl2.Render() != res.Table.Render() {
			t.Errorf("workers=%d shards=%d: reconstructed table renders differently", c.workers, c.shards)
		}
		if meta[results.MetaID] != "E1" {
			t.Errorf("store meta id = %q", meta[results.MetaID])
		}
	}
}

// TestCommittedGoldenCSVsRoundTripThroughStore drives the converter
// path over every committed full-suite golden in testdata/golden (E1-E18
// outputs of the full suite): import must infer a schema whose export
// reproduces the file byte for byte.
func TestCommittedGoldenCSVsRoundTripThroughStore(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "e*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed golden CSVs found in testdata/golden")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			blob, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := results.ImportCSV(blob, dir, nil); err != nil {
				t.Fatal(err)
			}
			back, err := results.ExportCSV(dir)
			if err != nil {
				t.Fatal(err)
			}
			if string(back) != string(blob) {
				t.Fatalf("%s does not round-trip byte-identically through the store", p)
			}
		})
	}
}
