package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/controller"
	"tsu/internal/journal"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// stack is the system under test in one process: a switchsim fleet on
// a shared LoopGroup, a controller the fleet dials over loopback TCP,
// the controller's REST handler behind a loopback HTTP server, and the
// typed client every op goes through. The fleet outlives the
// controller so restart-recover can kill one and start the next.
type stack struct {
	spec   *spec
	graph  *topo.Graph
	flows  []flow
	states []int // per flow: the path its traffic rides now (0 straight, 1 detour)

	fabric      *switchsim.Fabric
	switches    []*switchsim.Switch
	fleetCtx    context.Context
	cancelFleet context.CancelFunc
	journalDir  string // "" when the workload runs without a journal
	journalKind string // "tmpfs", "disk" or "off"

	// crashHook, when set, sees every journal append of every
	// controller incarnation; kill crashes that incarnation's journal
	// and cancels its context in one step.
	crashHook func(rec journal.Record, kill func())

	ctl ctl
	// live is ctl.ctrl for readers on other goroutines (nil while no
	// controller is up).
	live atomic.Pointer[controller.Controller]

	// Counters across controller incarnations: HTTP round trips made
	// through the client, records appended to the journals, and bytes
	// the closed journals had grown by.
	calls        atomic.Int64
	journalRecs  atomic.Int64
	journalBytes int64
}

// ctl is one controller incarnation.
type ctl struct {
	ctrl    *controller.Controller
	journal *journal.Journal
	stop    context.CancelFunc
	addr    string
	rest    *http.Server
	client  *client.Client
	http    *http.Transport
	// journalBase is the journal's size when this incarnation started
	// appending (after recovery compacted it, on a restart).
	journalBase int64
}

// journalFS names where journals live: tmpfs when the box has one,
// because three identical 1,000-epoch runs with the journal on the VM
// disk read 40.6, 68.7 and 71.0 epochs/s — fsync on a shared virtual
// disk does not repeat — against 125.8 and 133.8 on /dev/shm. The
// device's sync cost is still measured, as a per-layer number.
func journalFS() (dir, kind string, err error) {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if d, err := os.MkdirTemp("/dev/shm", "tsubench-"); err == nil {
			return d, "tmpfs", nil
		}
	}
	d, err := os.MkdirTemp(outDir(), "journal-")
	if err != nil {
		return "", "", fmt.Errorf("no writable directory for a journal: %w", err)
	}
	return d, "disk", nil
}

// outDir is the benchmark's scratch directory inside the checkout
// (trace files, the disk-sync probe, the journal when there is no
// tmpfs). It is listed in .gitignore.
func outDir() string {
	const d = ".bench_out"
	_ = os.MkdirAll(d, 0o755) //nolint:errcheck // a failure surfaces at first use
	return d
}

// countingTransport counts HTTP round trips (client.http_calls_per_op).
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.next.RoundTrip(r)
}

// newStack builds the fleet (not yet connected) for a workload.
func newStack(s *spec, seed int64) (*stack, error) {
	g, flows := buildFlows(s, seed)
	st := &stack{
		spec: s, graph: g, flows: flows, states: make([]int, len(flows)),
		fabric: switchsim.NewFabric(g), journalKind: "off",
	}
	st.fleetCtx, st.cancelFleet = context.WithCancel(context.Background())
	if s.journal {
		var err error
		if st.journalDir, st.journalKind, err = journalFS(); err != nil {
			st.cancelFleet()
			return nil, err
		}
	}
	loops := switchsim.NewLoopGroup(st.fleetCtx, nil, 0)
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(st.fabric, switchsim.Config{
			Node:           n,
			InstallLatency: s.install,
			CtrlLatency:    s.ctrl,
			Source:         netem.NewSource(seed*1000003 + int64(n)),
			Loops:          loops,
		})
		if err != nil {
			st.cancelFleet()
			return nil, err
		}
		st.switches = append(st.switches, sw)
	}
	return st, nil
}

func (st *stack) journalPath() string { return filepath.Join(st.journalDir, "journal.wal") }

// journalWritten returns how many bytes the workload's journals have
// grown by since set-up.
func (st *stack) journalWritten() int64 {
	n := st.journalBytes
	if jl := st.ctl.journal; jl != nil {
		n += jl.Size() - st.ctl.journalBase
	}
	return n
}

// startController opens the journal (when the workload has one),
// starts a controller and its REST server, and points every switch at
// it.
func (st *stack) startController() error {
	cfg := controller.Config{Topology: st.graph}
	ctx, cancel := context.WithCancel(context.Background())
	c := ctl{stop: cancel}
	fail := func(err error) error {
		cancel()
		if c.journal != nil {
			c.journal.Close() //nolint:errcheck // already failing
		}
		return err
	}
	if st.spec.journal {
		jl, err := journal.Open(st.journalPath())
		if err != nil {
			return fail(err)
		}
		kill := func() { jl.Crash(); cancel() }
		jl.SetOnAppend(func(rec journal.Record) {
			st.journalRecs.Add(1)
			if st.crashHook != nil {
				st.crashHook(rec, kill)
			}
		})
		cfg.Journal = jl
		c.journal, c.journalBase = jl, jl.Size()
	}
	ctrl, err := controller.New(cfg)
	if err != nil {
		return fail(err)
	}
	c.ctrl = ctrl
	if c.addr, err = ctrl.Start(ctx, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	c.rest = &http.Server{Handler: ctrl.RESTHandler()}
	go c.rest.Serve(ln) //nolint:errcheck // ends with rest.Close in stopController
	// Idle connections are kept, so the op measures the controller
	// rather than TCP connection churn.
	c.http = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	c.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: countingTransport{c.http, &st.calls}}),
		client.WithTimeout(60*time.Second))
	st.ctl = c
	st.live.Store(ctrl)
	return st.connectFleet()
}

// connectFleet dials every switch to the current controller and waits
// until the controller has all of them.
func (st *stack) connectFleet() error {
	for _, sw := range st.switches {
		if err := sw.Connect(st.fleetCtx, st.ctl.addr); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return st.ctl.ctrl.WaitForSwitches(ctx, len(st.switches))
}

// installOldPolicies programs every flow's straight path through the
// API, delivering to the flow's host.
func (st *stack) installOldPolicies(ctx context.Context) error {
	for i := range st.flows {
		f := &st.flows[i]
		err := st.ctl.client.InstallPolicy(ctx, api.PolicyRequest{
			Path: api.FromPath(f.straight), NWDst: f.nwDst, Host: f.host,
		})
		if err != nil {
			return fmt.Errorf("installing old policy of flow %d: %w", i, err)
		}
	}
	return nil
}

// stopController kills the current controller incarnation: REST
// server, engine, switch connections, journal handle.
func (st *stack) stopController() {
	c := st.ctl
	if c.ctrl == nil {
		return
	}
	st.live.Store(nil)
	c.http.CloseIdleConnections()
	c.rest.Close() //nolint:errcheck // shutdown path
	c.stop()
	if c.journal != nil {
		st.journalBytes += c.journal.Size() - c.journalBase
		c.journal.Close() //nolint:errcheck // shutdown path
	}
	st.ctl = ctl{}
}

// stopFleet closes every switch's control connection and stops the
// shared event loops; the controller stays up. Safe to call twice.
func (st *stack) stopFleet() {
	for _, sw := range st.switches {
		sw.Stop()
	}
	st.cancelFleet()
}

// close tears the whole stack down and removes the journal.
func (st *stack) close() {
	st.stopController()
	st.stopFleet()
	if st.journalDir != "" {
		os.RemoveAll(st.journalDir) //nolint:errcheck // best-effort cleanup
	}
}
