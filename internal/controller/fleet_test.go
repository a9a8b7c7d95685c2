package controller

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// TestDecentralizedVirtualClockFleet runs a full decentralized update
// over a default-configured fleet on a virtual clock: expiry sweeps
// and — crucially — the peer acks of decentralized execution are
// timers on that clock instead of per-switch/per-ack goroutines. The
// update must converge to the new path with exactly one peer message
// per cross-switch DAG edge, and the modelled latencies must show up
// in virtual time.
func TestDecentralizedVirtualClockFleet(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	// A fleet's sweeps keep an event pending at all times, so every idle
	// window the driver sees moves virtual time a sweep period closer to
	// the round timeout: at 200 µs a few ms of scheduler stall on a loaded
	// box was enough to time the install out (1–2 in 30 runs), at 1 ms none
	// of 90 did.
	stopDriver := sim.AutoAdvance(time.Millisecond)
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
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			InstallLatency: netem.Fixed(2 * time.Millisecond),
			PeerLatency:    netem.Fixed(500 * time.Microsecond),
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

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	installCtx, installCancel := context.WithTimeout(ctx, 60*time.Second)
	defer installCancel()
	if err := ctrl.InstallPath(installCtx, in.Old, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	job, err := ctrl.Engine().SubmitPlan(in, p, flowMatch("10.0.0.2"), SubmitOptions{Mode: ModeDecentralized})
	if err != nil {
		t.Fatal(err)
	}
	jobCtx, jobCancel := context.WithTimeout(ctx, 60*time.Second)
	defer jobCancel()
	if err := job.Wait(jobCtx); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobDone {
		t.Fatalf("job state = %v (err %v)", job.State(), job.Err())
	}

	res := fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(in.New) {
		t.Fatalf("post-update probe = %+v, want delivery via %v", res, in.New)
	}
	if got, want := len(job.Installs()), len(p.Nodes); got != want {
		t.Fatalf("installs = %d, want %d", got, want)
	}
	total, _ := job.Messages()
	if want := crossSwitchEdges(p); total.Peer != want {
		t.Fatalf("peer messages = %d, want %d (one per cross-switch edge)", total.Peer, want)
	}
	// Scheduled peer acks pay their latency on the virtual clock, so
	// the job's total virtual duration reflects the modelled delays.
	if got := job.TotalDuration(); got < 2*time.Millisecond {
		t.Fatalf("virtual total duration %v, want >= install latency", got)
	}
}

// TestControllerGoroutinesPerSwitch pins the controller's whole
// goroutine budget: one per connected switch, its blocking reader, plus
// the accept loop and the listener's closer — counted from before
// Start, so no pool the engine starts can hide in the baseline.
// Shutdown closes the connections from Start's one shutdown hook, not
// from a watcher or a context callback per connection. The switches here are bare handshaken
// sockets held by the test, so every goroutine counted is the
// controller's.
func TestControllerGoroutinesPerSwitch(t *testing.T) {
	const n = 32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl, err := New(Config{Topology: topo.Grid(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	base := steadyGoroutines()
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conns := make([]*ofconn.Conn, n)
	for i := range conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conns[i] = ofconn.New(nc)
		if err := ofconn.HandshakeSwitch(conns[i], &openflow.FeaturesReply{DatapathID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, n); err != nil {
		t.Fatal(err)
	}
	if got := steadyGoroutines() - base; got > n+2 {
		t.Fatalf("a started controller with %d connected switches runs %d goroutines, want <= %d", n, got, n+2)
	}

	cancel()
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // test socket
		if _, err := c.ReadMessage(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection %d still open after the controller's context was cancelled (read: %v)", i, err)
		}
	}
	waitFor(t, "the controller's readers to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestShutdownClosesHandshakingAndRegistered: cancelling the
// controller's context closes a registered switch's connection from
// Start's shutdown hook, and a handshake still in progress then closes
// its own connection when it finishes instead of registering. Both
// serveSwitch goroutines exit.
func TestShutdownClosesHandshakingAndRegistered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := topo.Fig1()
	ctrl, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Registered: a simulated switch on a context of its own, so only
	// the controller can close its connection.
	sw, err := switchsim.NewSwitch(switchsim.NewFabric(g), switchsim.Config{Node: g.Nodes()[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()
	if err := sw.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	// Mid-handshake: a bare socket that has read the controller's HELLO
	// and FEATURES_REQUEST and not yet answered.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	peer := ofconn.New(nc)
	peer.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // test socket
	var req openflow.Message
	for _, want := range []openflow.MsgType{openflow.TypeHello, openflow.TypeFeaturesRequest} {
		m, err := peer.ReadMessage()
		if err != nil || m.MsgType() != want {
			t.Fatalf("read %v (%v) from the controller, want %s", m, err, want)
		}
		req = m
	}

	cancel()
	fr := &openflow.FeaturesReply{DatapathID: uint64(g.Nodes()[1])}
	fr.SetXid(req.Xid())
	if _, err := peer.Send(&openflow.Hello{}); err != nil {
		t.Fatal(err)
	}
	if err := peer.WriteMessage(fr); err != nil {
		t.Fatal(err)
	}
	if m, err := peer.ReadMessage(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection whose handshake finished after shutdown is still open (read %v, %v)", m, err)
	}
	waitFor(t, "the registered switch's connection to close", func() bool { return !sw.Connected() })

	serving := fmt.Sprintf("(*Controller).serveSwitch(%p", ctrl)
	waitFor(t, "both serveSwitch goroutines to exit", func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), serving)
	})
	if dps := ctrl.Datapaths(); len(dps) != 0 {
		t.Fatalf("datapaths %v registered after shutdown", dps)
	}
}
