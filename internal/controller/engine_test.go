package controller

import (
	"context"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func TestCleanupRoundRemovesStaleRules(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Cleanup: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.shape.depth != sched.Depth()+1 {
		t.Fatalf("rounds = %d, want %d + cleanup", job.shape.depth, sched.Depth())
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Old-path-only switches (2, 4, 5, 6) must have empty tables now.
	for _, n := range []topo.NodeID{2, 4, 5, 6} {
		if got := tb.fabric.Switch(n).Table().Len(); got != 0 {
			t.Fatalf("stale rule still on switch %d (%d entries)", n, got)
		}
	}
	// New-path switches keep exactly one rule each, and forwarding
	// follows the new path.
	for _, n := range topo.Fig1NewPath {
		if got := tb.fabric.Switch(n).Table().Len(); got != 1 {
			t.Fatalf("switch %d has %d entries, want 1", n, got)
		}
	}
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("post-cleanup path %v", res.Visited)
	}

	// The cleanup round is flagged in the timings.
	timings := job.timings()
	last := timings[len(timings)-1]
	if !last.Cleanup {
		t.Fatal("last round not flagged as cleanup")
	}
	for _, rt := range timings[:len(timings)-1] {
		if rt.Cleanup {
			t.Fatal("non-final round flagged as cleanup")
		}
	}
}

func TestCleanupSkippedWhenNothingStale(t *testing.T) {
	tb := newTestbed(t, topo.Linear(4), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Old and new paths cover the same switches (no old-only switch).
	old := topo.Path{1, 2, 3, 4}
	if err := tb.ctrl.InstallPath(ctx, old, flowMatch("10.0.0.2"), ""); err != nil {
		t.Fatal(err)
	}
	in := core.MustInstance(old, old, 0)
	sched := core.OneShot(in) // zero rounds: nothing pending
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Cleanup: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.shape.depth != 0 {
		t.Fatalf("no-op update with cleanup got %d rounds", job.shape.depth)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRoundTimeoutOnSilentSwitch(t *testing.T) {
	// A switch that answers the handshake but then drops barriers
	// forces a round timeout; the job must fail, not hang.
	g := topo.Linear(3)
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			cfg := switchsim.Config{Node: n}
			if n == 2 {
				cfg.Faults = switchsim.Faults{DropBarriers: true}
			}
			return cfg
		})
	// A direct barrier to the faulty switch must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fmod, err := tb.ctrl.PathFlowMod(2, 3, flowMatch("10.0.0.2"), openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFlowMod(tb.ctrl, 2, fmod); err != nil {
		t.Fatal(err)
	}
	bctx, bcancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer bcancel()
	if err := barrier(bctx, tb.ctrl, 2); err == nil {
		t.Fatal("barrier to a barrier-dropping switch succeeded")
	}

	// And through the engine: a job touching switch 2 fails on the
	// round timeout.
	upd := core.MustInstance(topo.Path{1, 3}, topo.Path{1, 2, 3}, 0)
	sched, err := core.Peacock(upd)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(upd, sched, flowMatch("10.0.0.5"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jctx, jcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer jcancel()
	if err := job.Wait(jctx); err == nil {
		t.Fatal("job through a silent switch succeeded")
	}
	if job.State() != JobFailed {
		t.Fatalf("state = %v", job.State())
	}
}

func TestFaultDisconnectMidUpdate(t *testing.T) {
	// A switch that dies after its first FlowMod: the engine must fail
	// the job (send error or barrier timeout) and the controller must
	// deregister the datapath.
	g := topo.Linear(3)
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 500 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			cfg := switchsim.Config{Node: n}
			if n == 2 {
				cfg.Faults = switchsim.Faults{DisconnectAfterFlowMods: 1}
			}
			return cfg
		})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// First FlowMod consumed by the fault budget.
	fmod, err := tb.ctrl.PathFlowMod(2, 3, flowMatch("10.0.0.2"), openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendFlowMod(tb.ctrl, 2, fmod); err != nil {
		t.Fatal(err)
	}
	// The switch processes the FlowMod then disconnects; wait for
	// deregistration.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(tb.ctrl.Datapaths()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("datapath 2 still registered: %v", tb.ctrl.Datapaths())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := barrier(ctx, tb.ctrl, 2); err == nil {
		t.Fatal("barrier to a disconnected switch succeeded")
	}
}

func TestEngineProcessesJobsSequentially(t *testing.T) {
	// Two jobs flipping the same flow back and forth: the engine's
	// queue must execute them strictly in order, ending on job 2's
	// policy.
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	forward := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	backward := core.MustInstance(topo.Fig1NewPath, topo.Fig1OldPath, topo.Fig1Waypoint)
	s1, err := core.WayUp(forward)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.WayUp(backward)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := tb.ctrl.Engine().SubmitPlan(forward, s1, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := tb.ctrl.Engine().SubmitPlan(backward, s2, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if j1.State() != JobDone {
		t.Fatalf("job 1 state %v after job 2 done", j1.State())
	}
	// Strict ordering: job 1 finished before job 2 started its rounds.
	t1 := j1.timings()
	t2 := j2.timings()
	if len(t1) == 0 || len(t2) == 0 {
		t.Fatal("missing timings")
	}
	if j2.at(t2[0].Started).Before(j1.at(t1[len(t1)-1].Finished)) {
		t.Fatal("job 2 started before job 1's last barrier")
	}
	// Net effect: back on the old path.
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("final path %v, want old path restored", res.Visited)
	}
	// Jobs listing preserves submission order.
	jobs := tb.ctrl.Engine().Jobs()
	if len(jobs) != 2 || jobs[0].ID != j1.ID || jobs[1].ID != j2.ID {
		t.Fatalf("jobs = %v", jobs)
	}
}
