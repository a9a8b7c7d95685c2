package controller

import (
	"context"
	"log/slog"
	"net"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// testbed is a full in-process deployment: controller listening on
// loopback TCP, one simulated switch per topology node, all connected
// and handshaken.
type testbed struct {
	ctrl   *Controller
	fabric *switchsim.Fabric
	addr   string
	cancel context.CancelFunc
}

func newTestbed(t testing.TB, g *topo.Graph, swCfg func(topo.NodeID) switchsim.Config) *testbed {
	t.Helper()
	return newTestbedWithConfig(t, g, Config{Topology: g}, swCfg)
}

func newTestbedWithConfig(t testing.TB, g *topo.Graph, ctrlCfg Config, swCfg func(topo.NodeID) switchsim.Config) *testbed {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ctrl, err := New(ctrlCfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	fabric := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		cfg := switchsim.Config{Node: n}
		if swCfg != nil {
			cfg = swCfg(n)
		}
		sw, err := switchsim.NewSwitch(fabric, cfg)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr); err != nil {
			cancel()
			t.Fatal(err)
		}
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		cancel()
		t.Fatal(err)
	}
	tb := &testbed{ctrl: ctrl, fabric: fabric, addr: addr, cancel: cancel}
	t.Cleanup(func() {
		cancel()
		for _, n := range g.Nodes() {
			if sw := fabric.Switch(n); sw != nil {
				sw.Stop()
			}
		}
	})
	return tb
}

func flowMatch(ip string) openflow.Match { return openflow.ExactNWDst(net.ParseIP(ip)) }

func nwDstOf(ip string) uint32 {
	v4 := net.ParseIP(ip).To4()
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
}

func TestHandshakeAndRegistry(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	dps := tb.ctrl.Datapaths()
	if len(dps) != 12 {
		t.Fatalf("datapaths = %v", dps)
	}
	for i, dpid := range dps {
		if dpid != uint64(i+1) {
			t.Fatalf("datapaths = %v, want 1..12 sorted", dps)
		}
	}
}

func TestInstallPathAndProbe(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || res.Host != "h2" {
		t.Fatalf("probe = %+v", res)
	}
	if !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("visited %v", res.Visited)
	}
}

func TestBarrierWaitsForSlowInstall(t *testing.T) {
	// With a 30ms install latency, the barrier reply must not arrive
	// before the FlowMod has been applied.
	g := topo.Linear(2)
	tb := newTestbed(t, g, func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{Node: n, InstallLatency: netem.Fixed(30 * time.Millisecond)}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	fmod, err := tb.ctrl.PathFlowMod(1, 2, flowMatch("10.0.0.2"), openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sendFlowMod(tb.ctrl, 1, fmod); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, tb.ctrl, 1); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond {
		t.Fatalf("barrier returned after %v, before the 30ms install", elapsed)
	}
	if tb.fabric.Switch(1).Table().Len() != 1 {
		t.Fatal("rule not installed after barrier")
	}
}

func TestUpdateJobWayUpFig1(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{
			Node:           n,
			InstallLatency: netem.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
			CtrlLatency:    netem.Uniform{Min: 0, Max: 2 * time.Millisecond},
		}
	})
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
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobDone {
		t.Fatalf("job state = %v", job.State())
	}
	timings := job.timings()
	if len(timings) != sched.Depth() {
		t.Fatalf("timings for %d rounds, want %d", len(timings), sched.Depth())
	}
	for _, rt := range timings {
		if rt.Duration() <= 0 {
			t.Fatalf("round %d has non-positive duration", rt.Round)
		}
		if rt.FlowMods != len(rt.Switches) {
			t.Fatalf("round %d flowmods = %d, switches = %d", rt.Round, rt.FlowMods, len(rt.Switches))
		}
	}
	if job.TotalDuration() <= 0 {
		t.Fatal("total duration missing")
	}

	// The data plane must now follow the new path.
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered {
		t.Fatalf("post-update probe = %+v", res)
	}
	if !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("post-update path %v, want %v", res.Visited, topo.Fig1NewPath)
	}

	// Barrier accounting: every updated switch saw at least one
	// barrier from its rounds (plus one from InstallPath for old-path
	// switches).
	for _, n := range sched.Layers()[0] {
		if tb.fabric.Switch(n).BarriersSeen() == 0 {
			t.Fatalf("switch %d saw no barrier", n)
		}
	}
}

func TestUpdateJobIntervalBetweenRounds(t *testing.T) {
	g := topo.Fig1()
	tb := newTestbed(t, g, nil)
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
	if sched.Depth() < 2 {
		t.Skipf("need >= 2 rounds, got %d", sched.Depth())
	}
	const interval = 20 * time.Millisecond
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(sched.Depth()-1) * interval
	if job.TotalDuration() < want {
		t.Fatalf("total %v < %v: interval not honored", job.TotalDuration(), want)
	}
}

func TestEngineRejectsMismatchedSchedule(t *testing.T) {
	tb := newTestbed(t, topo.Linear(4), nil)
	in := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 2, 3, 4}, 0)
	bad := core.Layered("bogus", 0, [][]topo.NodeID{{1}})
	if _, err := tb.ctrl.Engine().SubmitPlan(in, bad, flowMatch("10.0.0.2"), SubmitOptions{}); err == nil {
		t.Fatal("mismatched schedule accepted")
	}
}

func TestJobFailsOnDisconnectedSwitch(t *testing.T) {
	// Only switches 1..3 of a 4-node ring connect; updating switch 4
	// (reachable in the topology, absent on the wire) must fail the
	// job at execution.
	g := topo.Ring(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabric := switchsim.NewFabric(g)
	for _, n := range []topo.NodeID{1, 2, 3} {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{Node: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr); err != nil {
			t.Fatal(err)
		}
		defer sw.Stop()
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 5*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, 3); err != nil {
		t.Fatal(err)
	}

	// New path routes through switch 4, which never connected: the
	// engine's first round updates new-only switch 4 and must fail.
	in := core.MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 0)
	sched, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jctx, jcancel := context.WithTimeout(ctx, 10*time.Second)
	defer jcancel()
	if err := job.Wait(jctx); err == nil {
		t.Fatal("job against disconnected switch succeeded")
	}
	if job.State() != JobFailed {
		t.Fatalf("state = %v, want failed", job.State())
	}
}

func TestFlowStatsRoundTrip(t *testing.T) {
	tb := newTestbed(t, topo.Linear(3), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Path{1, 2, 3}, flowMatch("10.0.0.2"), ""); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan *ofconn.Conn, 1)
	go func() {
		defer close(conns)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := ofconn.New(nc)
		if _, err := ofconn.HandshakeController(conn); err != nil {
			conn.Close()
			return
		}
		conns <- conn
	}()
	sw := tb.fabric.Switch(1)
	sw.Stop()
	if err := sw.Connect(ctx, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	conn, ok := <-conns
	if !ok {
		t.Fatal("bare controller: handshake failed")
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	req := &openflow.StatsRequest{Kind: openflow.StatsFlow, Flow: &openflow.FlowStatsRequest{
		Match: openflow.Match{Wildcards: openflow.WildcardAll}, TableID: 0xff, OutPort: openflow.PortNone,
	}}
	req.SetXid(77)
	if err := conn.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := m.(*openflow.StatsReply)
		if !ok {
			continue
		}
		if rep.Xid() != 77 || len(rep.Flows) != 1 {
			t.Fatalf("reply xid %d, flows %+v", rep.Xid(), rep.Flows)
		}
		if got := rep.Flows[0].Match.NWDstIP().String(); got != "10.0.0.2" {
			t.Fatalf("flow match = %v", got)
		}
		return
	}
}

func TestWaitForSwitchesTimeout(t *testing.T) {
	g := topo.Linear(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Start(ctx, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, 2); err == nil {
		t.Fatal("wait should time out with no switches")
	}
}

func TestNewRequiresTopology(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("controller without topology accepted")
	}
}

// FlowIPForTest is the demo flow destination used across REST tests.
const FlowIPForTest = "10.0.0.2"

func TestFlowRemovedNotification(t *testing.T) {
	// A rule with a hard timeout and the send-flow-removed flag expires
	// on the switch and surfaces as a FLOW_REMOVED at the controller.
	g := topo.Linear(2)
	removed := &flowRemovedLog{}
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Logger: slog.New(removed)}, func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{Node: n, TimeoutUnit: 20 * time.Millisecond}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fmod, err := tb.ctrl.PathFlowMod(1, 2, flowMatch("10.0.0.2"), openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	fmod.HardTimeout = 2 // 2 × 20ms
	fmod.Flags = openflow.FlagSendFlowRem
	if err := sendFlowMod(tb.ctrl, 1, fmod); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, tb.ctrl, 1); err != nil {
		t.Fatal(err)
	}
	if tb.fabric.Switch(1).Table().Len() != 1 {
		t.Fatal("rule not installed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for removed.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no FLOW_REMOVED after expiry (table len %d)", tb.fabric.Switch(1).Table().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tb.fabric.Switch(1).Table().Len() != 0 {
		t.Fatal("expired rule still installed")
	}
}

func TestFlowExpiryWithoutFlagStaysSilent(t *testing.T) {
	g := topo.Linear(2)
	removed := &flowRemovedLog{}
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Logger: slog.New(removed)}, func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{Node: n, TimeoutUnit: 10 * time.Millisecond}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fmod, err := tb.ctrl.PathFlowMod(1, 2, flowMatch("10.0.0.2"), openflow.FlowAdd)
	if err != nil {
		t.Fatal(err)
	}
	fmod.HardTimeout = 1
	if err := sendFlowMod(tb.ctrl, 1, fmod); err != nil {
		t.Fatal(err)
	}
	if err := barrier(ctx, tb.ctrl, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.fabric.Switch(1).Table().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("rule never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := removed.n.Load(); got != 0 {
		t.Fatalf("unexpected FLOW_REMOVED count %d without the flag", got)
	}
}
