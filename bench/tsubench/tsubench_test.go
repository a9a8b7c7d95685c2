package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 400 ops: p95 is the 380th value, with 20 beyond it.
	if got := percentile(xs, 0.95); got != 380 {
		t.Errorf("p95 of 1..400 = %v, want 380", got)
	}
	if got := percentile(xs, 0.50); got != 200 {
		t.Errorf("p50 of 1..400 = %v, want 200", got)
	}
	if got := percentile(xs, 1); got != 400 {
		t.Errorf("p100 of 1..400 = %v, want 400", got)
	}
	if got := percentile(xs[:1], 0.95); got != 1 {
		t.Errorf("p95 of one value = %v, want it", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWarmupAndOpCounts(t *testing.T) {
	for ops, want := range map[int]int{400: 20, 3000: 150, 19: 1, 2: 1} {
		if got := warmup(ops); got != want {
			t.Errorf("warmup(%d) = %d, want %d", ops, got, want)
		}
	}
	for _, w := range workloads {
		n := w.ops(20)
		if measured := n - warmup(n); measured < 400 {
			t.Errorf("%s: %d measured ops in a 20 s run, want at least 400 (20 beyond p95)", w.name, measured)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A root with two overlapping children and a grandchild: the root's
	// self time excludes the union of its children, not their sum.
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 50},
		{Name: "b", Op: 1, Parent: 0, Start: 40, End: 70},
		{Name: "a1", Op: 1, Parent: 1, Start: 20, End: 30},
	}
	want := []time.Duration{40, 30, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRelativeGap(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if got := relativeGap(lower, 100, 110); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better 100 vs 110 = %v, want 0.10", got)
	}
	if got := relativeGap(higher, 100, 110); got < 0.0908 || got > 0.0910 {
		t.Errorf("higher-is-better 100 vs 110 = %v, want 0.0909", got)
	}
	if relativeGap(lower, 110, 100) != relativeGap(lower, 100, 110) {
		t.Error("relativeGap is not symmetric")
	}
}

// requestBytes is everything a seed decides about what the client
// sends and where the controller dies.
func requestBytes(t *testing.T, s *spec, seed int64) []byte {
	t.Helper()
	_, flows := buildFlows(s, seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for dir := 0; dir < 2; dir++ {
		states := make([]int, len(flows))
		for i := range states {
			states[i] = dir
		}
		if err := enc.Encode(batch(s, flows, states)); err != nil {
			t.Fatal(err)
		}
	}
	if s.restart {
		if err := enc.Encode(crashBoundaries(s, seed, 100)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSeedDecidesInputs(t *testing.T) {
	for _, s := range workloads {
		a, b, c := requestBytes(t, s, 7), requestBytes(t, s, 7), requestBytes(t, s, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request bodies or crash boundaries", s.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, identical inputs", s.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package in step: the driver reads the one, the program reports by
// the other.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			case bounded && d.bound > 0.25:
				t.Errorf("%s %s: bound %v is above the contract's 0.25", kind, d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if bj.RunSeconds != 20 {
		t.Errorf("run_seconds = %d; the workloads' op rates are sized for 20", bj.RunSeconds)
	}
}

// TestShortPass runs every workload end to end at twenty ops: the whole stack comes up, every op must succeed, the final
// gate probes every flow, and each end-to-end metric must come out
// positive.
func TestShortPass(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel() // two of the four mostly wait; together they fit tier-1's budget
			res, err := runWorkload(options{workload: s.name, seed: 3, ops: 20})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted != 20 {
				t.Errorf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
			}
			for _, d := range endToEnd {
				if v := res.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive reading", d.name, v)
				}
			}
		})
	}
}

// TestTracedPass runs the cheapest workload traced: every per-layer
// metric must be reported, and the self-times under each op's latency
// root must add up to the latency the op reported.
func TestTracedPass(t *testing.T) {
	res, err := runWorkload(options{workload: "lan-epochs", seed: 3, ops: 80, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d ops or probes failed: %v", res.failed, res.errs)
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s not reported", d.name)
		}
	}
	if res.spanLo < 0.9 || res.spanHi > 1.1 {
		t.Errorf("span self-times sum to %.3f..%.3f of the op latency, want within 10 %%", res.spanLo, res.spanHi)
	}
	if res.metrics["client.http_calls_per_op"] != 33 {
		t.Errorf("http calls per op = %v, want 1 submit + 16 × (watch + status) = 33", res.metrics["client.http_calls_per_op"])
	}
}

// TestGateCatchesBrokenPath breaks the data plane behind the
// controller's back and expects the gate to notice.
func TestGateCatchesBrokenPath(t *testing.T) {
	s, err := lookupWorkload("lan-epochs")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := setUp(s, options{seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.gate(); err != nil {
		t.Fatalf("gate on a healthy data plane: %v", err)
	}
	st.states[1] = 1 - st.states[1]
	if err := st.gate(); err == nil {
		t.Error("gate passed with flow 1 on the wrong path")
	}
	st.states[1] = 1 - st.states[1]
	f := &st.flows[0]
	mid := f.path(st.states[0])[2]
	st.fabric.Switch(mid).Table().Wipe()
	if err := st.gate(); err == nil {
		t.Error("gate passed with a blackhole on flow 0's path")
	}
}
