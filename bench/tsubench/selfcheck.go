package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck runs every workload twice, alternating workloads so the
// two runs of one workload are minutes apart (as two sets of driver
// runs would be), then once traced. It prints each end-to-end metric's
// two values with their relative difference against the bound, and the
// per-layer table, and returns a non-zero exit code if a difference
// breaches its bound or an op failed. Each run is a fresh process.
func runSelfcheck(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsubench:", err)
		return 2
	}
	child := func(workload string, seed int64, trace int) (*wireReport, error) {
		cmd := exec.Command(exe,
			"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rep wireReport
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", workload, err)
		}
		return &rep, nil
	}

	runs := make(map[string][]*wireReport)
	for set := 0; set < 2; set++ {
		for _, w := range workloads {
			rep, err := child(w.name, o.seed+int64(set), 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tsubench:", err)
				return 2
			}
			runs[w.name] = append(runs[w.name], rep)
		}
	}

	code := 0
	for _, w := range workloads {
		a, b := runs[w.name][0], runs[w.name][1]
		fmt.Printf("== %s: ops %d/%d, failed %d/%d\n", w.name, a.Attempted, b.Attempted, a.Failed, b.Failed)
		if !a.Correct || !b.Correct {
			code = 1
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			rel := relativeGap(d, va, vb)
			verdict := "ok"
			if rel > d.bound {
				verdict, code = "BREACH", 1
			}
			fmt.Printf("%-18s %12.4f %12.4f %-5s gap %5.1f%% of bound %4.0f%%  %s\n",
				d.name, va, vb, d.unit, 100*rel, 100*d.bound, verdict)
		}
	}
	for _, w := range workloads {
		rep, err := child(w.name, o.seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsubench:", err)
			return 2
		}
		fmt.Printf("== %s: per-layer (traced run, failed %d of %d)\n", w.name, rep.Failed, rep.Attempted)
		if !rep.Correct {
			code = 1
		}
		values := make(map[string]float64, len(rep.Metrics))
		for k, v := range rep.Metrics {
			values[k] = v.Value
		}
		printTable(os.Stdout, perLayer, values)
	}
	return code
}

// relativeGap is how much worse the worse of two readings is, as a
// share of the better one — the driver's rule, applied both ways.
func relativeGap(d metricDef, a, b float64) float64 {
	better, worse := math.Min(a, b), math.Max(a, b)
	if d.better == "higher" {
		better, worse = worse, better
	}
	if better == 0 {
		return 0
	}
	return math.Abs(worse-better) / math.Abs(better)
}
