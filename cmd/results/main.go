// Command results inspects, exports, imports and queries columnar
// result stores (see internal/results and the "Columnar result store"
// section of DESIGN.md).
//
// Usage:
//
//	results stat   -store dir                # segments, rows, schema, meta
//	results export -store dir [-o out.csv]   # store -> CSV (byte-identical to the stored table)
//	results import -csv e1.csv -store dir    # legacy CSV -> store (round-trips exactly)
//	results query  -store dir -group-by policy -agg count,mean:penalty,p95:penalty \
//	               [-where 'cell<100'] [-csv]
//
// Queries stream over the segments in constant memory: filters and
// group-by run in one ordered pass, percentiles use P-squared
// estimators. Every segment is checksum-verified as it is read; a
// corrupt store fails the command rather than aggregating bad rows.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"potsim/internal/checkpoint"
	"potsim/internal/metrics"
	"potsim/internal/results"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "results:", err)
		os.Exit(1)
	}
}

// run executes one subcommand, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: results <stat|export|import|query> [flags]")
	}
	switch args[0] {
	case "stat":
		return runStat(args[1:], stdout)
	case "export":
		return runExport(args[1:], stdout)
	case "import":
		return runImport(args[1:])
	case "query":
		return runQuery(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (have stat, export, import, query)", args[0])
	}
}

func runStat(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("results stat", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("stat: -store is required")
	}
	st, err := results.Open(*dir, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "store:    %s\n", st.Dir())
	fmt.Fprintf(stdout, "segments: %d\n", st.Segments())
	fmt.Fprintf(stdout, "rows:     %d\n", st.Rows())
	if sch := st.Schema(); sch != nil {
		parts := make([]string, len(sch))
		for i, c := range sch {
			parts[i] = fmt.Sprintf("%s:%s", c.Name, c.Kind)
		}
		fmt.Fprintf(stdout, "schema:   %s\n", strings.Join(parts, " "))
	}
	if st.Segments() > 0 {
		for k, v := range st.SegmentMeta(0) {
			fmt.Fprintf(stdout, "meta:     %s=%s\n", k, v)
		}
	}
	return nil
}

func runExport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("results export", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	out := fs.String("o", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("export: -store is required")
	}
	csv, err := results.ExportCSV(*dir)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = stdout.Write(csv)
		return err
	}
	return checkpoint.WriteFileAtomic(*out, csv, 0o644)
}

func runImport(args []string) error {
	fs := flag.NewFlagSet("results import", flag.ContinueOnError)
	csvPath := fs.String("csv", "", "CSV file to convert")
	dir := fs.String("store", "", "store directory to (re)create")
	id := fs.String("id", "", "optional id recorded in segment meta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" || *dir == "" {
		return fmt.Errorf("import: -csv and -store are required")
	}
	blob, err := os.ReadFile(*csvPath)
	if err != nil {
		return err
	}
	meta := map[string]string{"imported-from": *csvPath}
	if *id != "" {
		meta[results.MetaID] = *id
	}
	if err := results.ImportCSV(blob, *dir, meta); err != nil {
		return err
	}
	// The converter's contract is exact round-trip; verify it here so
	// a conversion that would not re-export identically fails loudly
	// instead of quietly shipping a near-copy.
	back, err := results.ExportCSV(*dir)
	if err != nil {
		return err
	}
	if string(back) != string(blob) {
		return fmt.Errorf("import: %s does not round-trip byte-identically", *csvPath)
	}
	return nil
}

func runQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("results query", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory")
	groupBy := fs.String("group-by", "", "comma-separated group-by columns")
	aggSpec := fs.String("agg", "count", "comma-separated aggregates: count, sum:col, mean:col, min:col, max:col, p95:col, ...")
	var wheres stringList
	fs.Var(&wheres, "where", "filter 'col OP value' with OP in == != < <= > >= (repeatable)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("query: -store is required")
	}
	st, err := results.Open(*dir, nil)
	if err != nil {
		return err
	}
	q := results.Query{}
	if *groupBy != "" {
		q.GroupBy = strings.Split(*groupBy, ",")
	}
	for _, part := range strings.Split(*aggSpec, ",") {
		op, col, found := strings.Cut(part, ":")
		if !found && op != "count" {
			return fmt.Errorf("query: aggregate %q needs a column (op:col)", part)
		}
		q.Aggs = append(q.Aggs, results.Agg{Op: op, Col: col})
	}
	for _, w := range wheres {
		f, err := parseWhere(st.Schema(), w)
		if err != nil {
			return err
		}
		q.Filters = append(q.Filters, f)
	}
	res, err := st.RunQuery(q)
	if err != nil {
		return err
	}
	t := metrics.NewTable("", res.Headers...)
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			switch v.Kind {
			case results.Int64:
				cells[i] = v.Int
			case results.Float64:
				cells[i] = v.F
			default:
				cells[i] = v.Str
			}
		}
		t.AddRow(cells...)
	}
	if *asCSV {
		fmt.Fprint(stdout, t.CSV())
	} else {
		fmt.Fprint(stdout, t.Render())
	}
	return nil
}

// parseWhere splits 'col OP value', typing the value by the column's
// schema kind.
func parseWhere(schema results.Schema, s string) (results.Filter, error) {
	for _, op := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		col, val, found := strings.Cut(s, op)
		if !found {
			continue
		}
		col, val = strings.TrimSpace(col), strings.TrimSpace(val)
		cmp, err := results.ParseCmpOp(op)
		if err != nil {
			return results.Filter{}, err
		}
		ci := schema.Col(col)
		if ci < 0 {
			return results.Filter{}, fmt.Errorf("query: filter column %q not in schema", col)
		}
		f := results.Filter{Col: col, Op: cmp}
		switch schema[ci].Kind {
		case results.Int64:
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return results.Filter{}, fmt.Errorf("query: %q is not an integer for column %s", val, col)
			}
			f.Val = results.IntVal(n)
		case results.Float64:
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return results.Filter{}, fmt.Errorf("query: %q is not a number for column %s", val, col)
			}
			f.Val = results.FloatVal(x)
		default:
			f.Val = results.StrVal(val)
		}
		return f, nil
	}
	return results.Filter{}, fmt.Errorf("query: filter %q has no comparison operator", s)
}

type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
