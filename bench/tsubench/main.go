// Tsubench is the repository's benchmark: one invocation runs one
// workload in one fresh process that holds the controller, a switchsim
// fleet and a closed-loop load generator, with every op going through
// internal/client → REST → engine → dispatch → ofconn over loopback
// TCP. See bench/README.md for the workloads and what each metric
// means.
//
//	go run -C bench ./tsubench --workload lan-epochs --seed 1 --seconds 20 --trace 0
//	go run -C bench ./tsubench -selfcheck
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		o         options
		traceFlag int
		selfcheck bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: lan-epochs, wan-epochs, durable-bigplan or restart-recover")
	flag.Int64Var(&o.seed, "seed", 1, "seed for latency draws, flow-to-row assignment and crash boundaries")
	flag.IntVar(&o.seconds, "seconds", 20, "run length the op count is sized for")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice in alternation (plus one traced run) and check the two sets agree within the bounds")
	flag.Parse()
	o.trace = traceFlag != 0

	if selfcheck {
		os.Exit(runSelfcheck(o))
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsubench:", err)
		os.Exit(2)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "tsubench: failed:", e)
	}
	fmt.Printf("workload=%s seed=%d ops=%d gomaxprocs=%d journal_fs=%s\n",
		o.workload, o.seed, res.attempted, runtime.GOMAXPROCS(0), res.journalFS)

	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := filepath.Join(outDir(), "trace-"+o.workload+".jsonl")
		if err := res.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "tsubench: writing trace:", err)
			os.Exit(2)
		}
		fmt.Printf("trace: %d spans in %s; per op, span self-times sum to %.1f%%..%.1f%% of the latency\n",
			len(res.rec.spans), path, 100*res.spanLo, 100*res.spanHi)
	}
	printTable(os.Stdout, defs, res.metrics)
	if err := json.NewEncoder(os.Stdout).Encode(report(res, defs)); err != nil {
		fmt.Fprintln(os.Stderr, "tsubench:", err)
		os.Exit(2)
	}
}

// wireMetric and wireReport are the result line's schema.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func report(res *result, defs []metricDef) wireReport {
	out := wireReport{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]wireMetric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = wireMetric{Value: res.metrics[d.name], Unit: d.unit}
	}
	return out
}
