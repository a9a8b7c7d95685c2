package trace

import (
	"context"
	"net"
	"testing"
	"time"

	"tsu/internal/controller"
	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// liveBed wires a controller and a full switch fleet over loopback TCP
// with jittery control channels, installs the old Fig.1 policy, and
// returns everything needed to run updates under live probing.
type liveBed struct {
	ctrl   *controller.Controller
	fabric *switchsim.Fabric
}

func newLiveBed(t *testing.T, jitter netem.Latency, install netem.Latency) *liveBed {
	t.Helper()
	g := topo.Fig1()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ctrl, err := controller.New(controller.Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabric := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			CtrlLatency:    jitter,
			InstallLatency: install,
			Source:         netem.NewSource(int64(n) * 7919),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sw.Stop)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		t.Fatal(err)
	}

	installCtx, installCancel := context.WithTimeout(ctx, 30*time.Second)
	defer installCancel()
	match := openflow.ExactNWDst(net.ParseIP("10.0.0.2"))
	if err := ctrl.InstallPath(installCtx, topo.Fig1OldPath, match, "h2"); err != nil {
		t.Fatal(err)
	}
	return &liveBed{ctrl: ctrl, fabric: fabric}
}

// runUpdateUnderProbes executes the schedule while probing, returning
// the probe stats collected strictly during the update window.
func runUpdateUnderProbes(t *testing.T, bed *liveBed, sched *core.Schedule, in *core.Instance) Stats {
	t.Helper()
	match := openflow.ExactNWDst(net.ParseIP("10.0.0.2"))
	prober := NewProber(bed.fabric, Config{
		Ingress:  1,
		NWDst:    0x0a000002,
		Waypoint: topo.Fig1Waypoint,
		Interval: 50 * time.Microsecond,
	})
	stop := prober.Start(context.Background())
	job, err := bed.ctrl.Engine().SubmitPlan(in, core.PlanFromSchedule(sched), match, controller.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return stop()
}

// TestLiveWayUpNeverViolatesWaypoint is the demo's headline: under a
// jittery asynchronous control channel, the WayUp schedule keeps every
// delivered probe crossing the waypoint, with no blackholes, while the
// one-shot baseline (TestLiveOneShotViolates) does not.
func TestLiveWayUpNeverViolatesWaypoint(t *testing.T) {
	bed := newLiveBed(t,
		netem.Uniform{Min: 0, Max: 2 * time.Millisecond},
		netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond})
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	st := runUpdateUnderProbes(t, bed, sched, in)
	if st.Sent < 50 {
		t.Fatalf("too few probes (%d) to be meaningful", st.Sent)
	}
	if st.Violations() != 0 {
		t.Fatalf("wayup violated transit security: %+v (first: %+v)", st, st.FirstViolation)
	}
	// And the final state forwards on the new path.
	res := bed.fabric.Inject(1, 0x0a000002, 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path = %+v", res)
	}
}

// TestLiveOneShotViolates demonstrates the problem the paper solves:
// without rounds and barriers, some interleaving of rule installations
// lets probes bypass the waypoint or blackhole. A single run may get
// lucky — the jitter is wall-clock, and on a loaded box a whole update
// can slip between two probes — so the test retries up
// to a generous cap and stops at the first violation (with Fig.1's
// dangerous ordering — new-path switches gaining rules before their
// upstreams — violations are the overwhelmingly common case).
func TestLiveOneShotViolates(t *testing.T) {
	const maxAttempts = 50
	for i := 0; i < maxAttempts; i++ {
		bed := newLiveBed(t,
			netem.Uniform{Min: 0, Max: 4 * time.Millisecond},
			netem.Uniform{Min: 500 * time.Microsecond, Max: 4 * time.Millisecond})
		in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
		if st := runUpdateUnderProbes(t, bed, core.OneShot(in), in); st.Violations() > 0 {
			return
		}
	}
	t.Fatalf("one-shot produced zero violations across %d jittered runs", maxAttempts)
}
