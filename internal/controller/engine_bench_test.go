package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// BenchmarkEngineDisjointFlows measures a batch of flows on disjoint
// switch sets (a grid, one row pair per flow) submitted together; one
// iteration is the wall-clock until all complete. Every job launches at
// admission, so an iteration costs about one job's rounds × the 3 ms
// install whatever the batch size: the 64-flow arm (640 switches, 64
// simultaneous walks, each writing its own installs) reads what 60 more
// jobs add in CPU and scheduling on top of the 4-flow arm's waiting.
//
//	go test ./internal/controller -bench EngineDisjointFlows -benchtime 5x
func BenchmarkEngineDisjointFlows(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{
		// Arm names must not end in `-<digits>`: benchjson strips a
		// trailing dash-number as the GOMAXPROCS suffix.
		{"concurrent", benchFlows},
		{"concurrent-64flows", 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchmarkDisjointFlows(b, bc.flows)
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

func benchmarkDisjointFlows(b *testing.B, flows int) {
	g := topo.Grid(2*flows, 5)
	tb := newTestbedWithConfig(b, g, Config{Topology: g}, slowSwitches(3*time.Millisecond))
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
			job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch(nwDst), SubmitOptions{})
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
