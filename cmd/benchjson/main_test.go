package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffFilesAddedRemoved pins the asymmetric-file behavior: a
// benchmark present in only one snapshot is reported by name as ADDED
// or REMOVED, is excluded from the movement comparison, and never
// counts as a regression.
func TestDiffFilesAddedRemoved(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkShared":  {"iterations": 100, "ns_per_op": 1000},
			"BenchmarkRetired": {"iterations": 100, "ns_per_op": 2500}
		}
	}`)
	newPath := writeBench(t, dir, "new.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkShared": {"iterations": 100, "ns_per_op": 1010},
			"BenchmarkFresh":  {"iterations": 100, "ns_per_op": 700}
		}
	}`)
	var buf strings.Builder
	regressions, err := diffFiles(&buf, oldPath, newPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("added/removed benchmarks counted as %d regressions", regressions)
	}
	out := buf.String()
	for _, want := range []string{
		"BenchmarkFresh",
		"ADDED (700 ns/op)",
		"BenchmarkRetired",
		"REMOVED (was 2500 ns/op)",
		"compared 1 benchmarks: 0 faster, 0 slower, 0 alloc changes, 1 added, 1 removed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffFilesRegression keeps the gating behavior honest alongside
// the added/removed reporting: a shared benchmark past the threshold
// still counts.
func TestDiffFilesRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {"BenchmarkHot": {"iterations": 100, "ns_per_op": 1000, "allocs_per_op": 0}}
	}`)
	newPath := writeBench(t, dir, "new.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {"BenchmarkHot": {"iterations": 100, "ns_per_op": 1400, "allocs_per_op": 2}}
	}`)
	var buf strings.Builder
	regressions, err := diffFiles(&buf, oldPath, newPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 2 {
		t.Errorf("got %d regressions, want 2 (ns/op and allocs/op):\n%s", regressions, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("output does not flag the regression:\n%s", buf.String())
	}
}

// TestPairFiles pins the paired-run report: quartiles per side, pairs
// won in the metric's own direction with ties for neither, and the gain
// verdict only when nine tenths are won and the medians are further
// apart than the base's interquartile distance.
func TestPairFiles(t *testing.T) {
	dir := t.TempDir()
	decl := writeBench(t, dir, "BENCHMARK.json", `{"end_to_end": [
		{"name": "op_p50_ms", "better": "lower"},
		{"name": "ops_per_s", "better": "higher"},
		{"name": "setup_s", "better": "lower"}]}`)
	line := func(p50, ops, setup float64, failed int) string {
		return fmt.Sprintf(`{"attempted":100,"failed":%d,"metrics":{"op_p50_ms":{"value":%g,"unit":"ms"},"ops_per_s":{"value":%g,"unit":"1/s"},"setup_s":{"value":%g,"unit":"s"}}}`+"\n",
			failed, p50, ops, setup)
	}
	var base, change strings.Builder
	for i := 0; i < 10; i++ {
		base.WriteString(line(44+float64(i%3), 20, 0.25, 0))
		// p50: every pair won by far. ops_per_s: 8 of 10 won — not a
		// gain however large. setup_s: all ties.
		ops := 30.0
		if i < 2 {
			ops = 19
		}
		change.WriteString(line(30+float64(i%2), ops, 0.25, i/9))
	}
	basePath := writeBench(t, dir, "base.jsonl", base.String())
	changePath := writeBench(t, dir, "change.jsonl", change.String())
	var buf strings.Builder
	if err := pairFiles(&buf, basePath, changePath, decl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"44 / 45 / 45.75", "30 / 30.5 / 31", "10/10  gain", // op_p50_ms
		" 8/10  \n", // ops_per_s: no verdict
		" 0/10  \n", // setup_s: ties
		"failed ops: base 0 of 1000, change 1 of 1000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "gain") != 1 {
		t.Errorf("want exactly one gain verdict:\n%s", out)
	}

	short := writeBench(t, dir, "short.jsonl", line(1, 1, 1, 0))
	if err := pairFiles(&buf, basePath, short, decl); err == nil {
		t.Error("unequal run counts accepted")
	}
}
