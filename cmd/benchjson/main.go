// Command benchjson converts `go test -bench -benchmem` output on
// stdin into the repository's BENCH_*.json trajectory format: one
// entry per benchmark mapping its name to ns/op, B/op, allocs/op, and
// every domain metric the benchmark reported via b.ReportMetric
// (violations/op, rounds, events, states, ...). Future PRs diff these
// files to see the perf trajectory.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./... | benchjson -out BENCH_5.json
//
// With -diff, benchjson instead compares two BENCH files and reports
// per-benchmark ns/op and allocs/op movement — the perf-trajectory
// check CI runs (non-gating) against the previous PR's snapshot:
//
//	benchjson -diff BENCH_4.json BENCH_5.json
//	benchjson -diff -threshold 0.25 -fail-on-regress old.json new.json
//
// With -pairs, it reads the paired `tsubench` runs `make bench-pairs`
// collected (one result line per run; line i of each file is pair i)
// and reports each side's quartiles and the pairs the change won:
//
//	benchjson -pairs base.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed measurements. B/op and allocs/op
// are pointers so a recorded zero — the zero-alloc steady states this
// repository pins — is distinguishable from -benchmem being absent.
type Result struct {
	Package    string             `json:"package"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     *float64           `json:"b_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is the emitted JSON document.
type File struct {
	Schema     string            `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	diff := flag.Bool("diff", false, "compare two BENCH files: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 0.15, "with -diff: relative ns/op movement below this is reported as noise")
	failOnRegress := flag.Bool("fail-on-regress", false, "with -diff: exit non-zero when a regression exceeds the threshold")
	pairs := flag.Bool("pairs", false, "compare paired tsubench runs: benchjson -pairs base.jsonl change.jsonl")
	decl := flag.String("benchmark", "BENCHMARK.json", "with -pairs: the benchmark declaration naming the end-to-end metrics and which way is better")
	flag.Parse()
	if *pairs {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -pairs wants exactly two files: base.jsonl change.jsonl")
			os.Exit(2)
		}
		if err := pairFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *decl); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff wants exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressions > 0 && *failOnRegress {
			os.Exit(1)
		}
		return
	}
	f := File{
		Schema:     "tsu-bench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]Result{},
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, res, err := parseBenchLine(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
			continue
		}
		res.Package = pkg
		key := name
		if _, dup := f.Benchmarks[key]; dup && pkg != "" {
			key = pkg + ":" + name
		}
		f.Benchmarks[key] = res
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(f, "", "  ") // map keys marshal sorted: stable diffs
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc) //nolint:errcheck // stdout
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one `BenchmarkName-P  N  v1 unit1  v2 unit2 …`
// line into its name and measurements. The trailing `-P` GOMAXPROCS
// suffix is stripped from the name: keys must match across machines
// with different core counts, or trajectory diffs would silently
// compare nothing.
func parseBenchLine(line string) (string, Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", Result{}, fmt.Errorf("want 'name iters (value unit)+', got %d fields", len(fields))
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, fmt.Errorf("iterations: %w", err)
	}
	res := Result{Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BPerOp = ptr(v)
		case "allocs/op":
			res.AllocsOp = ptr(v)
		case "MB/s":
			// throughput: keep under its own metric name
			metric(&res, "mb_per_s", v)
		default:
			metric(&res, unit, v)
		}
	}
	return name, res, nil
}

func metric(r *Result, name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

func ptr(v float64) *float64 { return &v }

// diffFiles compares two BENCH snapshots and writes a per-benchmark
// movement report: ns/op relative change plus any allocs/op change
// (alloc counts are pinned budgets, so every alloc movement is
// reported regardless of the timing threshold). Benchmarks present in
// only one file are listed by name as ADDED or REMOVED — a renamed or
// deleted benchmark must show up in the trajectory, not silently drop
// out of the comparison. It returns the number of regressions —
// benchmarks slower than the threshold or allocating more than before.
func diffFiles(w io.Writer, oldPath, newPath string, threshold float64) (regressions int, err error) {
	oldF, err := readBenchFile(oldPath)
	if err != nil {
		return 0, err
	}
	newF, err := readBenchFile(newPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(newF.Benchmarks))
	for name := range newF.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var added, faster, slower, allocMoves int
	fmt.Fprintf(w, "benchjson diff: %s -> %s (threshold ±%.0f%% ns/op)\n", oldPath, newPath, threshold*100)
	for _, name := range names {
		nb := newF.Benchmarks[name]
		ob, ok := oldF.Benchmarks[name]
		if !ok {
			added++
			fmt.Fprintf(w, "  %-60s ADDED (%.0f ns/op)\n", name, nb.NsPerOp)
			continue
		}
		var notes []string
		if ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			rel := nb.NsPerOp/ob.NsPerOp - 1
			if rel >= threshold {
				slower++
				regressions++
				notes = append(notes, fmt.Sprintf("ns/op %+.1f%% (%.0f -> %.0f) REGRESSION", rel*100, ob.NsPerOp, nb.NsPerOp))
			} else if rel <= -threshold {
				faster++
				notes = append(notes, fmt.Sprintf("ns/op %+.1f%% (%.0f -> %.0f)", rel*100, ob.NsPerOp, nb.NsPerOp))
			}
		}
		if ob.AllocsOp != nil && nb.AllocsOp != nil && *ob.AllocsOp != *nb.AllocsOp {
			allocMoves++
			note := fmt.Sprintf("allocs/op %.0f -> %.0f", *ob.AllocsOp, *nb.AllocsOp)
			if *nb.AllocsOp > *ob.AllocsOp {
				regressions++
				note += " REGRESSION"
			}
			notes = append(notes, note)
		}
		if len(notes) > 0 {
			fmt.Fprintf(w, "  %-60s %s\n", name, strings.Join(notes, "; "))
		}
	}
	var gone []string
	for name := range oldF.Benchmarks {
		if _, ok := newF.Benchmarks[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "  %-60s REMOVED (was %.0f ns/op)\n", name, oldF.Benchmarks[name].NsPerOp)
	}
	removed := len(gone)
	fmt.Fprintf(w, "compared %d benchmarks: %d faster, %d slower, %d alloc changes, %d added, %d removed\n",
		len(names)-added, faster, slower, allocMoves, added, removed)
	return regressions, nil
}

func readBenchFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "tsu-bench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return &f, nil
}
