package controller

import (
	"context"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// BenchmarkPlanDispatch measures what each dispatch refinement buys
// under heavy-tailed switch latencies (netem bounded-Pareto installs,
// the PAM'15 stall model) and a WAN-grade control channel: a
// Comb(12, 8) update — twelve independent detour chains of eight
// switches each — executed on a full live deployment (controller + 121
// TCP switches) in virtual time, with every controller↔switch message
// paying benchCtrlLatency and every switch↔switch ack paying
// benchPeerLatency (ctrl-RTT ≫ hop-latency, the regime of a remote
// controller over in-fabric peers).
//
// Four arms:
//
//	round-barrier          GreedySLF's nine lock-step rounds as a
//	                       layered plan: every round pays two control
//	                       RTTs plus the slowest switch of every
//	                       unrelated chain — nine barriers, nine
//	                       stragglers, eighteen serialized RTTs.
//	sparse-plan            the controller-driven sparse DAG (depth 2,
//	                       critical path 1): stragglers only stall
//	                       their own branch, but every node still pays
//	                       its FlowMod + barrier on the control
//	                       channel — four serialized RTTs end to end.
//	decentralized-layered  the same nine-layer DAG executed by the
//	                       switches themselves (depth 9 ≥ 5): one
//	                       partition broadcast, then every
//	                       happens-before edge is a sub-millisecond
//	                       peer ack instead of two control RTTs. The
//	                       control channel appears exactly once on the
//	                       critical path.
//	decentralized-sparse   the sparse DAG peer-to-peer: both
//	                       optimizations compose.
//
// Completion is reported as virtual milliseconds per update
// (vclock_ms/op). The headline target: decentralized-layered — a
// depth-9 chain of dependencies — beats the controller-driven sparse
// plan by ≥3x, because chain depth costs hop latency instead of
// control RTTs.
//
//	go test ./internal/controller -bench PlanDispatch -benchtime 5x
func BenchmarkPlanDispatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		sparse bool
		mode   ExecMode
	}{
		{"round-barrier", false, ModeController},
		{"sparse-plan", true, ModeController},
		{"decentralized-layered", false, ModeDecentralized},
		{"decentralized-sparse", true, ModeDecentralized},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchmarkPlanDispatch(b, bc.sparse, bc.mode)
		})
	}
}

const (
	benchCombK     = 12
	benchCombChain = 8
)

// benchParetoInstall is the heavy-tailed rule-install latency every
// switch draws from: 1ms floor, tail index 2, 500ms stalls at the cap.
var benchParetoInstall = netem.Pareto{Scale: time.Millisecond, Alpha: 2.0, Cap: 500 * time.Millisecond}

// benchCtrlLatency is the one-way controller↔switch delivery latency:
// a remote (WAN) controller. benchPeerLatency is the switch↔switch
// hop for decentralized acks: an in-fabric data-plane neighbor,
// three orders of magnitude closer.
var (
	benchCtrlLatency = netem.Fixed(200 * time.Millisecond)
	benchPeerLatency = netem.Fixed(200 * time.Microsecond)
)

func benchmarkPlanDispatch(b *testing.B, sparse bool, mode ExecMode) {
	ti := topo.Comb(benchCombK, benchCombChain)
	fwd := core.MustInstance(ti.Old, ti.New, 0)
	back := core.MustInstance(ti.New, ti.Old, 0)

	sim := simclock.NewSim(time.Time{})
	// A generous idle window: with ~100 concurrent TCP flows the
	// driver must not release the next virtual timestamp while sends
	// are still in kernel flight, or stragglers get billed virtual
	// time they never modelled.
	stop := sim.AutoAdvance(3 * time.Millisecond)
	defer stop()
	tb := newTestbedWithConfig(b, ti.Graph, Config{Topology: ti.Graph, Clock: sim},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{
				Node:           n,
				InstallLatency: benchParetoInstall,
				CtrlLatency:    benchCtrlLatency,
				PeerLatency:    benchPeerLatency,
				Clock:          sim,
			}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	match := flowMatch("10.0.0.2")
	if err := tb.ctrl.InstallPath(ctx, fwd.Old, match, ""); err != nil {
		b.Fatal(err)
	}

	sched, err := core.GreedySLF(fwd)
	if err != nil {
		b.Fatal(err)
	}
	var plan *core.Plan
	if sparse {
		plan = core.SparsePlan(fwd, sched)
		if !plan.Sparse || plan.Depth() != 2 {
			b.Fatalf("comb sparse plan = %s, want a depth-2 sparse DAG", plan)
		}
	} else if mode == ModeDecentralized {
		// The depth target of the decentralized arm: a genuinely deep
		// dependency chain, so the win cannot come from plan shape.
		if d := sched.Depth(); d < 5 {
			b.Fatalf("comb layered plan depth = %d, want >= 5", d)
		}
	}
	backSched, err := core.GreedySLF(back)
	if err != nil {
		b.Fatal(err)
	}

	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var job *Job
		if sparse {
			job, err = tb.ctrl.Engine().SubmitPlan(fwd, plan, match, SubmitOptions{Mode: mode})
		} else {
			job, err = tb.ctrl.Engine().SubmitPlan(fwd, sched, match, SubmitOptions{Mode: mode})
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		virtual += job.TotalDuration()

		// Roll back (unmeasured) so the next iteration updates again.
		b.StopTimer()
		undo, err := tb.ctrl.Engine().SubmitPlan(back, backSched, match, SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := undo.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "vclock_ms/op")
}
