package experiments

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"tsu/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/replay.golden from the current tree")

// renderResult prints an E1xResult with its Table field blanked,
// followed by the table itself.
func renderResult(res any) string {
	c := reflect.New(reflect.TypeOf(res).Elem()).Elem()
	c.Set(reflect.ValueOf(res).Elem())
	f := c.FieldByName("Table")
	tbl := f.Interface().(*metrics.Table)
	f.Set(reflect.Zero(f.Type()))
	return fmt.Sprintf("%+v\n%s", c.Interface(), tbl)
}

// TestReplayGolden pins the analytic experiments' values — every result
// field and every table cell — to testdata/replay.golden. The
// Reproducible tests only compare worker counts with each other; this
// one compares with what the tree printed when the file was written, so
// a change to the replay model has to keep the per-node draw order, the
// fault decisions and the counters bit for bit.
func TestReplayGolden(t *testing.T) {
	e10 := func(k, p int, seed int64) func(int) (any, error) {
		return func(int) (any, error) { return E10VirtualFatTree(k, p, seed) }
	}
	e13 := func(k, p int, seed int64) func(int) (any, error) {
		return func(w int) (any, error) { return E13FaultedRollback(k, p, seed, w) }
	}
	e14 := func(k, p int, seed int64) func(int) (any, error) {
		return func(w int) (any, error) { return E14CrashRecovery(k, p, seed, w) }
	}
	e15 := func(k, p int, seed int64) func(int) (any, error) {
		return func(w int) (any, error) { return E15Soak(k, p, seed, w) }
	}
	cases := []struct {
		name    string
		run     func(workers int) (any, error)
		workers []int
	}{
		{"E10 k=20 p=20 seed=11", e10(20, 20, 11), []int{1, 3}},
		{"E13 k=20 p=48 seed=11", e13(20, 48, 11), []int{1, 3}},
		{"E14 k=20 p=32 seed=11", e14(20, 32, 11), []int{1, 3}},
		{"E15 k=24 p=40 seed=11", e15(24, 40, 11), []int{1, 3}},
		{"E13 defaults seed=1", e13(0, 0, 1), []int{2}},
		{"E13 defaults seed=17", e13(0, 0, 17), []int{2}},
		{"E14 defaults seed=1", e14(0, 0, 1), []int{2}},
		{"E14 defaults seed=17", e14(0, 0, 17), []int{2}},
		{"E15 k=90 p=200 seed=1", e15(90, 200, 1), []int{2}},
		{"E15 k=90 p=200 seed=17", e15(90, 200, 17), []int{2}},
	}

	var got strings.Builder
	for _, tc := range cases {
		var first string
		for i, w := range tc.workers {
			res, err := tc.run(w)
			if err != nil {
				t.Fatalf("%s (workers %d): %v", tc.name, w, err)
			}
			out := renderResult(res)
			if i == 0 {
				first = out
			} else if out != first {
				t.Errorf("%s: workers %d differs from workers %d:\n%s\n--- vs ---\n%s",
					tc.name, w, tc.workers[0], out, first)
			}
		}
		fmt.Fprintf(&got, "== %s\n%s\n", tc.name, first)
	}

	const path = "testdata/replay.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
