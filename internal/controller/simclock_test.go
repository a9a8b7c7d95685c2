package controller

import (
	"context"
	"net"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// TestVirtualClockUpdate puts a full live deployment — controller,
// twelve switches, loopback TCP — on a simclock.Sim driven by
// AutoAdvance, and runs the WayUp update with latencies that would
// cost seconds of wall time on the real clock. The update must
// complete, the reported round timings must be virtual (reflecting the
// modelled latencies), and the final forwarding state must be the new
// path.
func TestVirtualClockUpdate(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	stopDriver := sim.AutoAdvance(200 * time.Microsecond)
	defer stopDriver()

	g := topo.Fig1()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl, err := New(Config{Topology: g, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabric := switchsim.NewFabric(g)
	const (
		ctrlLat    = 20 * time.Millisecond
		installLat = 30 * time.Millisecond
	)
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			CtrlLatency:    netem.Fixed(ctrlLat),
			InstallLatency: netem.Fixed(installLat),
			Clock:          sim,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr); err != nil {
			t.Fatal(err)
		}
		defer sw.Stop()
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		t.Fatal(err)
	}

	match := openflow.ExactNWDst(net.ParseIP("10.0.0.2"))
	installCtx, installCancel := context.WithTimeout(ctx, 60*time.Second)
	defer installCancel()
	if err := ctrl.InstallPath(installCtx, topo.Fig1OldPath, match, "h2"); err != nil {
		t.Fatal(err)
	}

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctrl.Engine().SubmitPlan(in, sched, match, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobCtx, jobCancel := context.WithTimeout(ctx, 60*time.Second)
	defer jobCancel()
	if err := job.Wait(jobCtx); err != nil {
		t.Fatal(err)
	}

	// Every round carries at least one FlowMod, which lags by the
	// control-channel plus install latency on the virtual clock; the
	// job's total must reflect those modelled delays even though no
	// comparable wall time passed.
	if got := job.TotalDuration(); got < ctrlLat+installLat {
		t.Fatalf("virtual total duration %v, want >= %v", got, ctrlLat+installLat)
	}
	for _, rt := range job.Timings() {
		if rt.Duration() <= 0 {
			t.Fatalf("round %d has non-positive virtual duration %v", rt.Round, rt.Duration())
		}
	}
	res := fabric.Inject(1, 0x0a000002, 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path after virtual-time update = %+v", res)
	}
}
