package controller

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/ofconn"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// discardConn is a net.Conn whose writes vanish and whose reads block
// until Close: the cheapest possible "switch" for exercising the
// dispatch path without I/O latency or a read loop. onWrite, when set
// (before the conn is written to), sees every Write first and fails it
// with what it returns.
type discardConn struct {
	closed  chan struct{}
	onWrite func() error
}

func newDiscardConn() *discardConn { return &discardConn{closed: make(chan struct{})} }

func (c *discardConn) Write(p []byte) (int, error) {
	if c.onWrite != nil {
		if err := c.onWrite(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
func (c *discardConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *discardConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}
func (c *discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

const (
	allocSwitches = 64 // distinct fake switches (dpids 1..64)
	allocLayers   = 32 // chain length per switch: 64*32 = 2048 installs
)

// allocHarness is a controller with fake switch connections wired
// straight into the datapath table, plus a responder that resolves
// every registered barrier sink — the dispatch path end to end with
// zero network.
type allocHarness struct {
	c       *Controller
	e       *Engine
	plan    execPlan
	conns   []*discardConn // conns[d-1] is switch d's
	dps     []*datapath
	scratch []barrierSink // answer's, reused
	stop    func()
}

func newAllocHarness(t *testing.T) *allocHarness { return newFakeFleet(t, false) }

// newFakeFleet builds the harness. With hold set no responder runs: a
// launched job writes its first wave and waits, its barriers held until
// the test answers them (held, answer).
func newFakeFleet(t *testing.T, hold bool) *allocHarness { return newFakeFleetOn(t, hold, nil) }

// newFakeFleetOn is newFakeFleet with the controller on clock (nil: the
// real one).
func newFakeFleetOn(t *testing.T, hold bool, clock simclock.Clock) *allocHarness {
	t.Helper()
	g := topo.Grid(8, 8)
	c, err := New(Config{Topology: g, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.engine.run(ctx)

	// The execution DAG: allocLayers update waves over allocSwitches
	// switches — a deep plan that exercises wave journaling, batched
	// writes and the deadline ring across many release cycles.
	h := &allocHarness{c: c, e: c.engine, plan: fakePlan("10.9.0.2", 1, allocSwitches, allocLayers), scratch: make([]barrierSink, 0, 256)}
	c.mu.Lock()
	for d := uint64(1); d <= allocSwitches; d++ {
		conn := newDiscardConn()
		dp := &datapath{
			dpid:  d,
			conn:  ofconn.New(conn),
			sinks: make(map[uint32]barrierSink),
		}
		c.datapaths[d] = dp
		h.conns = append(h.conns, conn)
		h.dps = append(h.dps, dp)
	}
	c.mu.Unlock()

	// Responder: what the per-connection read loop would do on each
	// BarrierReply, minus the wire. It allocates nothing in steady state,
	// so it cannot pollute the pin.
	done := make(chan struct{})
	if !hold {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				if h.answer() == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	h.stop = func() {
		close(done)
		cancel()
	}
	return h
}

// answer replies to every barrier the fleet holds, as the read loops
// would, and returns how many that was.
func (h *allocHarness) answer() int {
	for _, dp := range h.dps {
		dp.mu.Lock()
		for xid, s := range dp.sinks {
			delete(dp.sinks, xid)
			h.scratch = append(h.scratch, s)
		}
		dp.mu.Unlock()
	}
	n := len(h.scratch)
	if n > 0 {
		now := h.c.clock.Now()
		for _, s := range h.scratch {
			h.e.disp.deliver(s, now)
		}
		h.scratch = h.scratch[:0]
	}
	return n
}

// held waits until the fleet holds n unanswered barriers: the installs
// a walk has written and now waits on.
func (h *allocHarness) held(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d barriers written", n), func() bool { return registeredSinks(h.c) >= n })
	if got := registeredSinks(h.c); got != n {
		t.Fatalf("the fleet holds %d barriers, want %d", got, n)
	}
}

// fakePlan is layers update waves for flow ip over the width switches
// from first on, each node released by the same switch's previous
// install.
func fakePlan(ip string, first topo.NodeID, width, layers int) execPlan {
	n := width * layers
	p := &core.Plan{Algorithm: "alloc-pin", Nodes: make([]core.PlanNode, 0, n)}
	rules := make([]nodeRule, 0, n)
	for i := 0; i < n; i++ {
		var deps []int
		if i >= width {
			deps = []int{i - width}
		}
		p.Nodes = append(p.Nodes, core.PlanNode{Switch: first + topo.NodeID(i%width), Deps: deps})
		rules = append(rules, nodeRule{kind: ruleModify, port: 1})
	}
	return newExecPlan(p, flowMatch(ip), rules, n, nil)
}

// runJob executes one full job on the dispatch path and waits for it.
func (h *allocHarness) runJob(t *testing.T, id int) {
	t.Helper()
	job := newJob(h.plan, SubmitOptions{}, nil)
	job.ID = id
	h.e.begin(job)
	report, err := h.e.execute(context.Background(), job)
	h.e.finish(job, err, report)
	if job.State() != JobDone {
		t.Fatalf("job %d: state %v, err %v", id, job.State(), job.Err())
	}
	if got := len(job.Installs()); got != h.plan.len() {
		t.Fatalf("job %d: %d installs confirmed, want %d", id, got, h.plan.len())
	}
}

// serve admits n jobs, the i-th running plans[i%len(plans)], in waves
// that stay under maxAdmitted, waits for every one to end done, and
// returns the first.
func (h *allocHarness) serve(t *testing.T, n int, plans ...execPlan) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first *Job
	for n > 0 {
		wave := make([]*Job, min(n, maxAdmitted/2))
		for i := range wave {
			job, err := h.e.enqueue(newJob(plans[i%len(plans)], SubmitOptions{}, nil))
			if err != nil {
				t.Fatal(err)
			}
			wave[i] = job
		}
		for _, job := range wave {
			if err := job.Wait(ctx); err != nil {
				t.Fatalf("job %d: %v", job.ID, err)
			}
		}
		if first == nil {
			first = wave[0]
		}
		n -= len(wave)
	}
	return first
}
