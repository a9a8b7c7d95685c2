package controller

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// The abort tests migrate the Fig. 1 flow from the old route onto the
// new one. Switches 7..11 are new-path-only (their undo is a
// FlowDelete); 1 and 3 divert and are updated last.
func submitAbortJob(t *testing.T, tb *testbed, mode ExecMode) (*Job, *core.Plan) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatalf("installing old path: %v", err)
	}
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return job, sched
}

// TestCrashMidPlanRollsBackVerified is the fault layer end to end:
// switch 8 crashes after applying its first (and only) update FlowMod,
// wiping its flow table, then reconnects. The job must abort on the
// lost barrier, verify the reverse plan of the dispatched prefix safe,
// execute it, and leave the data plane on the old path.
func TestCrashMidPlanRollsBackVerified(t *testing.T) {
	faults := map[topo.NodeID]switchsim.Faults{
		8: {DisconnectAfterFlowMods: 1, WipeTableOnCrash: true},
	}
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 400 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, Faults: faults[n]}
		})
	reconnectAfterCrash(t, tb, 8, 1)

	job, _ := submitAbortJob(t, tb, ModeController)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err == nil {
		t.Fatal("job across a crashing switch succeeded")
	}
	f := job.Failure()
	if f == nil {
		t.Fatal("failed job has no failure report")
	}
	if f.Phase != PhaseRolledBack {
		t.Fatalf("phase = %q (report %+v), want %q", f.Phase, f, PhaseRolledBack)
	}
	if !f.RollbackVerified {
		t.Fatal("rollback executed without verification")
	}
	if len(f.RolledBack) == 0 {
		t.Fatal("rolled-back phase with empty rolled-back set")
	}
	assertRolledBackInstalled(t, f)
	// The data plane is back on the old configuration.
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("post-rollback probe = %+v, want delivery along %v", res, topo.Fig1OldPath)
	}
	// New-path-only switches carry no leftover rules: 8 was wiped by
	// the crash (the delete it received is idempotent), the rest were
	// rolled back with FlowDeletes.
	for _, n := range []topo.NodeID{7, 8, 9, 10, 11} {
		if l := tb.fabric.Switch(n).Table().Len(); l != 0 {
			t.Fatalf("switch %d still holds %d rules after rollback", n, l)
		}
	}
}

// reconnectAfterCrash brings switch n back once its crash fault has
// fired — after its applied-th FlowMod — well inside any round timeout,
// so reconcile and the rollback find it.
func reconnectAfterCrash(t *testing.T, tb *testbed, n topo.NodeID, applied uint64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sw := tb.fabric.Switch(n)
	go func() {
		for sw.FlowModsApplied() < applied {
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		time.Sleep(20 * time.Millisecond) // let the dying control loop exit
		if err := sw.Connect(ctx, tb.addr); err != nil && ctx.Err() == nil {
			t.Errorf("reconnecting crashed switch %d: %v", n, err)
		}
	}()
}

// TestAbortReportsExactSetsAndStuckNodes pins the bookkeeping: with
// switch 7 dropping every barrier (forward and rollback), the sibling
// installs of round 1 confirm, 7's FlowMod applies unconfirmed, the
// rollback verifies but fails at 7, and the report lists exactly what
// was in effect, what was undone, and what is stuck.
func TestAbortReportsExactSetsAndStuckNodes(t *testing.T) {
	faults := map[topo.NodeID]switchsim.Faults{7: {DropBarriers: true}}
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, Faults: faults[n]}
		})
	job, sched := submitAbortJob(t, tb, ModeController)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := job.Wait(ctx)
	if err == nil {
		t.Fatal("job across a barrier-dropping switch succeeded")
	}
	if !strings.Contains(err.Error(), "rollback failed") {
		t.Fatalf("error %q does not name the failed rollback", err)
	}
	f := job.Failure()
	if f == nil {
		t.Fatal("failed job has no failure report")
	}
	if f.Phase != PhaseRollbackFailed {
		t.Fatalf("phase = %q (report %+v), want %q", f.Phase, f, PhaseRollbackFailed)
	}
	if !f.RollbackVerified {
		t.Fatal("rollback executed without verification")
	}
	// Installed is what the switches showed in effect when asked after
	// the abort: all of round 1 — 7 too, whose FlowMod applied although
	// its barrier reply never came, and the query (answered after that
	// FlowMod, like a barrier) says so. Later rounds were never released.
	// 7's siblings were then undone, and only 7 is left stuck.
	assertSet := func(name string, got []topo.NodeID, want []topo.NodeID) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v (round 1: %v)", name, got, want, sched.Layers()[0])
		}
	}
	round1 := slices.Sorted(slices.Values(sched.Layers()[0]))
	assertSet("installed", f.Installed, round1)
	rolledBack := slices.Sorted(slices.Values(f.RolledBack))
	assertSet("rolled back", rolledBack, slices.DeleteFunc(slices.Clone(round1), func(n topo.NodeID) bool { return n == 7 }))
	assertRolledBackInstalled(t, f)
	if len(f.Stuck) != 1 || f.Stuck[0].Switch != 7 {
		t.Fatalf("stuck = %+v, want exactly switch 7", f.Stuck)
	}
}

// assertRolledBackInstalled checks RolledBack ⊆ Installed: an abort
// reverses exactly the set reconcile found in effect, which Installed
// reports.
func assertRolledBackInstalled(t *testing.T, f *FailureReport) {
	t.Helper()
	for _, n := range f.RolledBack {
		if !slices.Contains(f.Installed, n) {
			t.Fatalf("rolled back %v not within installed %v", f.RolledBack, f.Installed)
		}
	}
}

// newVirtualTestbed builds a testbed whose controller and switches all
// share one simclock.Sim driven by AutoAdvance.
func newVirtualTestbed(t *testing.T, roundTimeout time.Duration, faults map[topo.NodeID]switchsim.Faults) *testbed {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	stop := sim.AutoAdvance(200 * time.Microsecond)
	t.Cleanup(stop)
	g := topo.Fig1()
	return newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: roundTimeout, Clock: sim},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, Clock: sim, Faults: faults[n]}
		})
}

// TestVirtualTimeBarrierTimeout is the regression for the wall-clock
// barrier timeout: under a simclock with AutoAdvance, a dropped
// barrier must surface as a round timeout after RoundTimeout *virtual*
// time at near-zero wall cost. Before the fix the engine armed a
// wall-clock context for the barrier wait, so this test blocked for
// the full 30 wall-clock seconds.
func TestVirtualTimeBarrierTimeout(t *testing.T) {
	const roundTimeout = 30 * time.Second
	tb := newVirtualTestbed(t, roundTimeout, map[topo.NodeID]switchsim.Faults{
		7: {DropBarriers: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatalf("installing old path: %v", err)
	}
	// One-shot: all nodes dispatch immediately; only 7's barrier is
	// lost. The unordered installed prefix admits unsafe sub-ideals, so
	// the rollback must be refused and the job reported stuck.
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	job, err := tb.ctrl.Engine().SubmitPlan(in, core.OneShot(in), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer waitCancel()
	err = job.Wait(waitCtx)
	wall := time.Since(start)
	if err == nil {
		t.Fatal("job across a barrier-dropping switch succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap the barrier deadline", err)
	}
	if !strings.Contains(err.Error(), "rollback refused") {
		t.Fatalf("error %q does not name the refused rollback", err)
	}
	if virt := job.TotalDuration(); virt < roundTimeout {
		t.Fatalf("job failed after %v virtual time, want >= %v (timeout ran on the wall clock?)", virt, roundTimeout)
	}
	if wall >= roundTimeout/2 {
		t.Fatalf("virtual-time timeout burned %v wall time (want far below %v)", wall, roundTimeout)
	}
	f := job.Failure()
	if f == nil || f.Phase != PhaseStuck {
		t.Fatalf("failure = %+v, want phase %q", f, PhaseStuck)
	}
	if f.RollbackVerified {
		t.Fatal("refused rollback reported as verified")
	}
	if len(f.Stuck) == 0 {
		t.Fatal("stuck job reports no stuck nodes")
	}
	assertRolledBackInstalled(t, f)
}

// TestVirtualTimeDecentralizedStallRollback is the decentralized twin:
// a switch that installs but never releases its peers stalls the run;
// the controller times out on virtual time, rolls back what the
// switches show in effect, and restores the old path — still at
// near-zero wall cost.
func TestVirtualTimeDecentralizedStallRollback(t *testing.T) {
	const roundTimeout = 20 * time.Second
	tb := newVirtualTestbed(t, roundTimeout, map[topo.NodeID]switchsim.Faults{
		7: {DropPeerAcks: true},
	})
	job, _ := submitAbortJob(t, tb, ModeDecentralized)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err := job.Wait(ctx)
	wall := time.Since(start)
	if err == nil {
		t.Fatal("stalled decentralized job succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap the stall deadline", err)
	}
	if virt := job.TotalDuration(); virt < roundTimeout {
		t.Fatalf("job failed after %v virtual time, want >= %v", virt, roundTimeout)
	}
	if wall >= roundTimeout/2 {
		t.Fatalf("virtual-time stall burned %v wall time (want far below %v)", wall, roundTimeout)
	}
	f := job.Failure()
	if f == nil {
		t.Fatal("failed job has no failure report")
	}
	if f.Phase != PhaseRolledBack {
		t.Fatalf("phase = %q (report %+v), want %q", f.Phase, f, PhaseRolledBack)
	}
	if !f.RollbackVerified {
		t.Fatal("rollback executed without verification")
	}
	assertRolledBackInstalled(t, f)
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("post-rollback probe = %+v, want delivery along %v", res, topo.Fig1OldPath)
	}
}

// TestChaosProbabilisticFaults soaks the control channel in seeded
// random faults: FlowMods duplicate and reorder (semantics-preserving
// for idempotent MODIFYs), barrier replies drop, duplicate and
// reorder. Every job must terminate — done, or failed with a
// structured report naming a known phase — and faults must actually
// have been injected. Per-switch sources are seeded by node ID, so the
// run is reproducible.
func TestChaosProbabilisticFaults(t *testing.T) {
	injected := metrics.FaultsInjected.Value()
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{
				Node: n,
				Faults: switchsim.Faults{
					FlowModFaults: netem.Faults{DupProb: 0.15, ReorderProb: 0.15, ReorderDelay: netem.Fixed(2 * time.Millisecond)},
					BarrierFaults: netem.Faults{DropProb: 0.10, DupProb: 0.10, ReorderProb: 0.10, ReorderDelay: netem.Fixed(2 * time.Millisecond)},
				},
			}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// The install barriers ride the same faulty channel; MODIFYs are
	// idempotent, so retry until a clean confirmation.
	installed := false
	for attempt := 0; attempt < 20 && !installed; attempt++ {
		ictx, icancel := context.WithTimeout(ctx, 2*time.Second)
		installed = tb.ctrl.InstallPath(ictx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2") == nil
		icancel()
	}
	if !installed {
		t.Fatal("installing old path never confirmed under faults")
	}
	for i := 0; i < 6; i++ {
		oldP, newP := topo.Fig1OldPath, topo.Fig1NewPath
		if i%2 == 1 {
			oldP, newP = newP, oldP
		}
		in := core.MustInstance(oldP, newP, 0)
		sched, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jctx, jcancel := context.WithTimeout(ctx, 30*time.Second)
		waitErr := job.Wait(jctx)
		jcancel()
		if st := job.State(); st != JobDone && st != JobFailed {
			t.Fatalf("chaos job %d stuck in state %v", i, st)
		}
		if waitErr != nil {
			f := job.Failure()
			if f == nil {
				t.Fatalf("chaos job %d failed without a failure report: %v", i, waitErr)
			}
			switch f.Phase {
			case PhaseAborted, PhaseRolledBack, PhaseRollbackFailed, PhaseStuck:
			default:
				t.Fatalf("chaos job %d reports unknown phase %q", i, f.Phase)
			}
			assertRolledBackInstalled(t, f)
		}
	}
	if metrics.FaultsInjected.Value() <= injected {
		t.Fatal("no faults were injected")
	}
}
