package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// BenchmarkEngineDisjointFlows measures the dispatcher's gain: flows
// on disjoint switch sets (a grid, one row pair per flow) are
// submitted together and one iteration is the wall-clock until all
// complete. The serial sub-benchmarks (EngineWorkers=1) are the
// paper's FIFO engine; concurrent is the conflict-aware default. With
// a realistic per-switch rule-install latency the concurrent engine
// finishes the 4-flow batch in roughly a quarter of the serial
// wall-clock; the 64-flow arms are the sharded dispatcher's scale
// tier — 640 switches, 64 simultaneous jobs multiplexed over the
// fixed shard pool.
//
//	go test ./internal/controller -bench EngineDisjointFlows -benchtime 5x
func BenchmarkEngineDisjointFlows(b *testing.B) {
	for _, bc := range []struct {
		name    string
		flows   int
		workers int
	}{
		// Arm names must not end in `-<digits>`: benchjson strips a
		// trailing dash-number as the GOMAXPROCS suffix.
		{"serial", benchFlows, 1},
		{"concurrent", benchFlows, 8},
		{"serial-64flows", 64, 1},
		{"concurrent-64flows", 64, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchmarkDisjointFlows(b, bc.flows, bc.workers)
		})
	}
}

const benchFlows = 4

// benchFlow is one of the disjoint updates: flow k owns grid rows 2k
// and 2k+1 of a (2*flows)x5 grid (node id = row*5 + col + 1). The old
// path runs along the even row; the new path detours through the odd
// row.
func benchFlow(k int) (fwd, back *core.Instance, nwDst string) {
	base := topo.NodeID(2 * k * 5)
	old := topo.Path{base + 1, base + 2, base + 3, base + 4, base + 5}
	detour := topo.Path{base + 1, base + 6, base + 7, base + 8, base + 9, base + 10, base + 5}
	return core.MustInstance(old, detour, 0), core.MustInstance(detour, old, 0),
		fmt.Sprintf("10.0.%d.2", k)
}

func benchmarkDisjointFlows(b *testing.B, flows, workers int) {
	g := topo.Grid(2*flows, 5)
	tb := newTestbedWithConfig(b, g, Config{Topology: g, EngineWorkers: workers},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{
				Node:           n,
				InstallLatency: netem.Fixed(3 * time.Millisecond),
				Source:         netem.NewSource(int64(n)),
			}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*Job, 0, flows)
		for k := 0; k < flows; k++ {
			fwd, back, nwDst := benchFlow(k)
			in := fwd
			if i%2 == 1 {
				in = back // alternate direction so every iteration has work
			}
			sched, err := core.Peacock(in)
			if err != nil {
				b.Fatal(err)
			}
			job, err := tb.ctrl.Engine().SubmitPlan(in, core.PlanFromSchedule(sched), flowMatch(nwDst), SubmitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		for _, job := range jobs {
			if err := job.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}
