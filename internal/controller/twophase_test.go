package controller

import (
	"context"
	"slices"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func TestTwoPhaseEndToEnd(t *testing.T) {
	for _, mode := range []ExecMode{ModeController, ModeDecentralized} {
		t.Run(mode.String(), func(t *testing.T) { testTwoPhaseEndToEnd(t, mode) })
	}
}

func testTwoPhaseEndToEnd(t *testing.T, mode ExecMode) {
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
	job, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), SubmitOptions{Mode: mode})
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
		if e.Match.Wildcards&openflow.WildcardDLVLAN == 0 && e.Match.DLVLAN == TwoPhaseTag {
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
	job, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), SubmitOptions{Cleanup: true})
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
	pinned := vlanMatch([]byte{10, 0, 0, 2}, 5)
	if _, err := submitTwoPhase(tb.ctrl.Engine(), in, pinned, SubmitOptions{}); err == nil {
		t.Fatal("vlan-pinned match accepted")
	}
}

// TestTwoPhaseAbortRollsBack aborts a two-phase job with cleanup in both
// dispatch modes, once in each phase: at a prepare barrier (switch 8
// crashes right after its tagged rule lands) and after the commit took
// effect (old-only switch 4 crashes right after its cleanup delete).
// The crashed switch never answers for its install and comes back with
// its table intact. Each run ends rolled back on a verified reverse,
// and every switch holds exactly the rules it held before the job: no
// tagged rule anywhere, the ingress untagged and pointing at its old
// successor, the deleted stale rule back.
func TestTwoPhaseAbortRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name      string
		victim    topo.NodeID
		crashAt   uint64 // the victim's FlowMods applied when it crashes
		committed bool   // the ingress flipped before the abort
	}{
		{name: "prepare", victim: 8, crashAt: 1},
		// Switch 4's first FlowMod is the old path's rule.
		{name: "cleanup", victim: 4, crashAt: 2, committed: true},
	} {
		for _, mode := range []ExecMode{ModeController, ModeDecentralized} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				g := topo.Fig1()
				tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
					func(n topo.NodeID) switchsim.Config {
						cfg := switchsim.Config{Node: n}
						if n == tc.victim {
							cfg.Faults = switchsim.Faults{DisconnectAfterFlowMods: tc.crashAt}
						}
						return cfg
					})
				reconnectAfterCrash(t, tb, tc.victim, tc.crashAt)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
					t.Fatal(err)
				}
				before := allTableRules(tb.fabric)

				in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
				job, err := submitTwoPhase(tb.ctrl.Engine(), in, flowMatch("10.0.0.2"), SubmitOptions{Cleanup: true, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Wait(ctx); err == nil {
					t.Fatalf("job across a crashing switch %d succeeded", tc.victim)
				}
				f := job.Failure()
				if f == nil || f.Phase != PhaseRolledBack || !f.RollbackVerified {
					t.Fatalf("failure = %+v, want a verified rollback", f)
				}
				assertRolledBackInstalled(t, f)
				if !slices.Contains(f.Installed, tc.victim) {
					t.Fatalf("installed %v misses the crashed switch %d", f.Installed, tc.victim)
				}
				if got := slices.Contains(f.Installed, in.Src()); got != tc.committed {
					t.Fatalf("installed %v: ingress in it = %v, want %v", f.Installed, got, tc.committed)
				}
				for n, rules := range allTableRules(tb.fabric) {
					if rules != before[n] {
						t.Fatalf("switch %d holds [%s] after the rollback, held [%s] before the job", n, rules, before[n])
					}
				}
				res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
				if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1OldPath) {
					t.Fatalf("post-rollback probe = %+v, want delivery along %v", res, topo.Fig1OldPath)
				}
			})
		}
	}
}
