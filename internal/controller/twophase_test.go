package controller

import (
	"context"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func TestTwoPhaseEndToEnd(t *testing.T) {
	// Jittery channel; two-phase must deliver per-packet consistency:
	// every probe rides either the complete old or the complete new
	// policy, never a mixture.
	tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{
			Node:           n,
			CtrlLatency:    netem.Uniform{Min: 0, Max: 2 * time.Millisecond},
			InstallLatency: netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	job, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), 2016, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.shape.depth != 2 {
		t.Fatalf("two-phase rounds = %d, want 2 (prepare, commit)", job.shape.depth)
	}

	// Probe continuously during the update: every delivered probe's
	// path must equal exactly the old or the new path.
	stopc := make(chan struct{})
	violations := make(chan topo.Path, 1024)
	go func() {
		for {
			select {
			case <-stopc:
				close(violations)
				return
			default:
			}
			res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
			if res.Outcome != switchsim.ProbeDelivered ||
				(!res.Visited.Equal(topo.Fig1OldPath) && !res.Visited.Equal(topo.Fig1NewPath)) {
				select {
				case violations <- res.Visited:
				default:
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	close(stopc)
	for bad := range violations {
		t.Fatalf("probe saw a policy mixture: %v", bad)
	}

	// Final state: packets are tagged at ingress and ride the new path.
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path %v, want %v", res.Visited, topo.Fig1NewPath)
	}
	// Intermediate new-path switches carry the tagged copy on top of
	// whatever untagged rule they had.
	sw8 := tb.fabric.Switch(8).Table().Snapshot()
	foundTagged := false
	for _, e := range sw8 {
		if e.Match.Wildcards&openflow.WildcardDLVLAN == 0 && e.Match.DLVLAN == 2016 {
			foundTagged = true
		}
	}
	if !foundTagged {
		t.Fatal("switch 8 lacks the tagged rule")
	}
}

func TestTwoPhaseCleanup(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	job, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), 7, SubmitOptions{Cleanup: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.shape.depth != 3 {
		t.Fatalf("rounds = %d, want 3", job.shape.depth)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range []topo.NodeID{2, 4, 5, 6} {
		if got := tb.fabric.Switch(n).Table().Len(); got != 0 {
			t.Fatalf("stale rule on old-only switch %d", n)
		}
	}
}

func TestTwoPhaseValidation(t *testing.T) {
	tb := newTestbed(t, topo.Linear(3), nil)
	in := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 0)
	if _, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), openflow.VLANNone, SubmitOptions{}); err == nil {
		t.Fatal("reserved tag accepted")
	}
	pinned := vlanMatch([]byte{10, 0, 0, 2}, 5)
	if _, err := submitTwoPhase(tb.ctrl.Engine(), in, pinned, 7, SubmitOptions{}); err == nil {
		t.Fatal("vlan-pinned match accepted")
	}
}
