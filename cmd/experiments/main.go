// Command experiments regenerates the reproduction's experiment tables
// (see README.md for the experiment index). Each experiment spins up the
// full stack — controller, switch fleet over loopback TCP, probes — or
// calls the algorithms directly, or (E10, E13–E15) replays an analytic
// model on virtual time, and prints its table. The experiments, their
// order and their descriptions come from experiments.Registry.
//
// Usage:
//
//	experiments            # run everything, in index order
//	experiments -run E4    # one experiment
//	experiments -seed 7    # change the deterministic seed
//
// Hot-path regressions are diagnosable in-repo: -cpuprofile / -memprofile
// write pprof profiles of the run (go tool pprof <file>), and the
// controller binary exposes /debug/pprof behind its -pprof flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tsu/internal/experiments"
)

func main() {
	// realMain keeps the profile-flushing defers ahead of os.Exit,
	// which would otherwise skip them.
	os.Exit(realMain())
}

func realMain() int {
	var (
		run        = flag.String("run", "", "comma-separated experiment ids (default: all)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		reps       = flag.Int("reps", 3, "repetitions for timing experiments")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close() //nolint:errcheck // profile already flushed
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close() //nolint:errcheck // best-effort profile
			runtime.GC()    // materialize the post-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	selected := experiments.Registry
	if *run != "" {
		selected = nil
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(experiments.Registry, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				var known []string
				for _, e := range experiments.Registry {
					known = append(known, e.ID)
				}
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s; E8 is the codec benchmark: go test -bench=E8)\n",
					id, strings.Join(known, ", "))
				return 2
			}
			selected = append(selected, experiments.Registry[i])
		}
	}

	failed := false
	for _, e := range selected {
		fmt.Printf("=== %s — %s (seed %d)\n", e.ID, e.Description, *seed)
		start := time.Now()
		tbl, err := e.Run(*seed, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Print(tbl.String())
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	return 0
}
