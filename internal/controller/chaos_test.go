package controller

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// TestChaosUpdatesUnderRandomFaults submits a stream of update jobs
// against a fleet where random switches drop barriers or crash
// mid-update. Invariants: the engine never hangs (every job reaches
// done or failed within its round timeout), jobs over healthy switches
// succeed, and the controller's datapath registry stays consistent.
func TestChaosUpdatesUnderRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	g := topo.Fig1()
	faulty := map[topo.NodeID]switchsim.Faults{
		5:  {DropBarriers: true},
		10: {DisconnectAfterFlowMods: 1},
	}
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 400 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{
				Node:        n,
				CtrlLatency: netem.Uniform{Min: 0, Max: time.Millisecond},
				Faults:      faulty[n],
			}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Installing across the barrier-dropping switch 5 must fail fast
	// (bounded context), not hang.
	fctx, fcancel := context.WithTimeout(ctx, 600*time.Millisecond)
	err := tb.ctrl.InstallPath(fctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2")
	fcancel()
	if err == nil {
		t.Fatal("install across a barrier-dropping switch succeeded")
	}

	// Healthy-path updates: avoid the faulty switches entirely.
	healthyOld := topo.Path{1, 2, 3, 9}
	healthyNew := topo.Path{1, 7, 8, 3, 9}
	ictx, icancel := context.WithTimeout(ctx, 10*time.Second)
	defer icancel()
	if err := tb.ctrl.InstallPath(ictx, healthyOld, flowMatch("10.0.0.7"), ""); err != nil {
		t.Fatalf("healthy install failed: %v", err)
	}
	for i := 0; i < 5; i++ {
		var in *core.Instance
		if i%2 == 0 {
			in = core.MustInstance(healthyOld, healthyNew, 0)
		} else {
			in = core.MustInstance(healthyNew, healthyOld, 0)
		}
		sched, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.7"), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jctx, jcancel := context.WithTimeout(ctx, 20*time.Second)
		err = job.Wait(jctx)
		jcancel()
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
	}

	// Jobs crossing the faulty switches: must terminate (done or
	// failed), never hang.
	for i := 0; i < 4; i++ {
		old := topo.Path{1, 2, 3, 4, 5, 6, 12}
		new_ := topo.Path{1, 7, 8, 3, 9, 10, 11, 12}
		if rng.Intn(2) == 0 {
			old, new_ = new_, old
		}
		in := core.MustInstance(old, new_, 0)
		sched, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jctx, jcancel := context.WithTimeout(ctx, 20*time.Second)
		_ = job.Wait(jctx) // failure is acceptable; hanging is not
		jcancel()
		if st := job.State(); st != JobDone && st != JobFailed {
			t.Fatalf("chaos job %d stuck in state %v", i, st)
		}
	}

	// Registry consistency: every remaining datapath answers a barrier.
	for _, dpid := range tb.ctrl.Datapaths() {
		sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
		err := barrier(sctx, tb.ctrl, dpid)
		scancel()
		if err != nil && dpid != 5 { // switch 5 drops barriers
			t.Fatalf("datapath %d unresponsive after chaos: %v", dpid, err)
		}
	}
}
