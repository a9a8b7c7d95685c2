package controller

import (
	"context"
	"fmt"
	"net"
	"strings"
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
	for _, rt := range job.timings() {
		if rt.Duration() <= 0 {
			t.Fatalf("round %d has non-positive virtual duration %v", rt.Round, rt.Duration())
		}
	}
	res := fabric.Inject(1, 0x0a000002, 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path after virtual-time update = %+v", res)
	}
}

// TestZeroOffsetRound: on a virtual clock that only the test moves, a
// job's first wave leaves at the instant the job begins — offset 0 of
// its log, a real start and not an unset one. Round 0 starts there,
// and its length, its installs' and the job's total read the same in
// the round view, the status body and the watch replay.
func TestZeroOffsetRound(t *testing.T) {
	sim := simclock.NewSim(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	h := newFakeFleetOn(t, true, sim)
	defer h.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := h.e.enqueue(newJob(fakePlan("10.9.8.1", 1, 2, 2), SubmitOptions{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.held(t, 2) // round 0, sent at the job's first instant
	sim.Advance(3 * time.Millisecond)
	h.answer()
	h.held(t, 2) // round 1, released 3 ms in
	sim.Advance(4 * time.Millisecond)
	h.answer()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	ms := time.Millisecond
	rounds := job.timings()
	if len(rounds) != 2 || rounds[0].Started != 0 || rounds[0].Finished != 3*ms || rounds[1].Started != 3*ms || rounds[1].Finished != 7*ms {
		t.Fatalf("rounds %+v, want [0, 3ms] and [3ms, 7ms]", rounds)
	}
	for _, it := range job.Installs() {
		if want := time.Duration(it.Layer) * 3 * ms; it.Started != want {
			t.Fatalf("install %+v: started at %v, want %v", it, it.Started, want)
		}
	}
	st := v1JobStatus(job)
	if st.TotalMicros != 7000 || len(st.Rounds) != 2 || st.Rounds[0].Micros != 3000 || st.Rounds[1].Micros != 4000 {
		t.Fatalf("status: total %d us, rounds %+v", st.TotalMicros, st.Rounds)
	}
	for _, in := range st.Installs {
		if want := int64(3000 + 1000*in.Layer); in.Micros != want {
			t.Fatalf("status install %+v: %d us, want %d", in, in.Micros, want)
		}
	}
	_, body := serveGET(t, h.c, fmt.Sprintf("/v1/updates/%d/watch", job.ID), nil)
	for _, want := range []string{
		`"install":{"switch":1,"layer":0,"flowmods":1,"us":3000}`,
		`"install":{"switch":2,"layer":0,"flowmods":1,"us":3000}`,
		`"round":{"round":0,"switches":[1,2],"us":3000}`,
		`"install":{"switch":1,"layer":1,"released_by":1,"flowmods":1,"us":4000}`,
		`"install":{"switch":2,"layer":1,"released_by":2,"flowmods":1,"us":4000}`,
		`"round":{"round":1,"switches":[1,2],"us":4000}`,
		`{"type":"done","job":1,"total_us":7000}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("watch replay lacks %s:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "event: "); n != 7 {
		t.Fatalf("watch replay has %d events, want 7:\n%s", n, body)
	}
}
