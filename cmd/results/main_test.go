package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleCSV = `policy,cell,penalty
pots,0,1.5
pots,1,2.5
tm,2,4.25
tm,3,6.75
tm,4,0.5
`

// importSample writes sampleCSV and imports it into a fresh store,
// returning the store directory.
func importSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sample.csv")
	if err := os.WriteFile(csvPath, []byte(sampleCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if err := run([]string{"import", "-csv", csvPath, "-store", store}, &bytes.Buffer{}); err != nil {
		t.Fatalf("import: %v", err)
	}
	return store
}

// runOut runs one subcommand and returns what it wrote to stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("results %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestImportExportRoundTrip(t *testing.T) {
	store := importSample(t)
	if got := runOut(t, "export", "-store", store); got != sampleCSV {
		t.Fatalf("export to stdout differs from the imported CSV:\n%s", got)
	}
	outPath := filepath.Join(t.TempDir(), "out.csv")
	runOut(t, "export", "-store", store, "-o", outPath)
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != sampleCSV {
		t.Fatalf("export -o differs from the imported CSV:\n%s", got)
	}
}

func TestStatReportsRows(t *testing.T) {
	out := runOut(t, "stat", "-store", importSample(t))
	for _, want := range []string{"rows:     5\n", "schema:   policy:string cell:int64 penalty:float64\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output lacks %q:\n%s", want, out)
		}
	}
}

func TestQueryGroupsAndAggregates(t *testing.T) {
	store := importSample(t)
	got := runOut(t, "query", "-store", store, "-group-by", "policy",
		"-agg", "count,mean:penalty", "-csv")
	want := "policy,count,mean(penalty)\npots,2,2\ntm,3,3.833\n"
	if got != want {
		t.Fatalf("query output:\n%s\nwant:\n%s", got, want)
	}
	got = runOut(t, "query", "-store", store, "-group-by", "policy",
		"-agg", "count", "-where", "cell>=2", "-where", "penalty<5", "-csv")
	if want := "policy,count\ntm,2\n"; got != want {
		t.Fatalf("filtered query output:\n%s\nwant:\n%s", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	store := importSample(t)
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"stat"},
		{"export"},
		{"import", "-csv", "x.csv"},
		{"query", "-group-by", "policy"},
		{"query", "-store", store, "-where", "nope==1"},
		{"query", "-store", store, "-agg", "mean:nope"},
		{"query", "-store", store, "-agg", "mean"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("results %q: want an error", args)
		}
	}
}
