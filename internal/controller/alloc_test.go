//go:build !race

package controller

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// discardConn is a net.Conn whose writes vanish and whose reads block
// until Close: the cheapest possible "switch" for exercising the
// dispatch path without I/O latency or a read loop.
type discardConn struct {
	closed chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{closed: make(chan struct{})} }

func (c *discardConn) Write(p []byte) (int, error) { return len(p), nil }
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
	c    *Controller
	e    *Engine
	plan execPlan
	stop func()
}

func newAllocHarness(t *testing.T) *allocHarness {
	t.Helper()
	g := topo.Grid(8, 8)
	c, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.engine.disp.start(ctx)

	c.mu.Lock()
	for d := uint64(1); d <= allocSwitches; d++ {
		c.datapaths[d] = &datapath{
			dpid:      d,
			conn:      ofconn.New(newDiscardConn()),
			sinks:     make(map[uint32]barrierSink),
			statsWait: make(map[uint32]chan []openflow.FlowStats),
		}
	}
	dps := make([]*datapath, 0, allocSwitches)
	for _, dp := range c.datapaths {
		dps = append(dps, dp)
	}
	c.mu.Unlock()

	// Responder: what the per-connection read loop would do on each
	// BarrierReply, minus the wire. Scratch slice reused — the responder
	// allocates nothing in steady state, so it cannot pollute the pin.
	done := make(chan struct{})
	go func() {
		scratch := make([]barrierSink, 0, 256)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, dp := range dps {
				dp.mu.Lock()
				for xid, s := range dp.sinks {
					delete(dp.sinks, xid)
					scratch = append(scratch, s)
				}
				dp.mu.Unlock()
			}
			if len(scratch) == 0 {
				runtime.Gosched()
				continue
			}
			now := c.clock.Now()
			for _, s := range scratch {
				c.engine.disp.deliver(s, now)
			}
			scratch = scratch[:0]
		}
	}()

	// The execution DAG: allocLayers update waves over allocSwitches
	// switches, each node released by the same switch's previous
	// install — a deep plan that exercises wave journaling, shard
	// coalescing and the deadline ring across many release cycles.
	n := allocSwitches * allocLayers
	p := &core.Plan{Algorithm: "alloc-pin", Nodes: make([]core.PlanNode, 0, n)}
	mods := make([][]*openflow.FlowMod, 0, n)
	for i := 0; i < n; i++ {
		node := topo.NodeID(i%allocSwitches + 1)
		fm := &openflow.FlowMod{
			Match:    flowMatch("10.9.0.2"),
			Command:  openflow.FlowModify,
			Priority: 100,
			BufferID: openflow.NoBuffer,
			OutPort:  openflow.PortNone,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: 1}},
		}
		var deps []int
		if i >= allocSwitches {
			deps = []int{i - allocSwitches}
		}
		p.Nodes = append(p.Nodes, core.PlanNode{Switch: node, Deps: deps})
		mods = append(mods, []*openflow.FlowMod{fm})
	}

	h := &allocHarness{c: c, e: c.engine, plan: newExecPlan(p, mods, n, nil)}
	h.stop = func() {
		close(done)
		cancel()
	}
	return h
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

// TestDispatchPathAllocs pins the sharded dispatch path at zero
// steady-state allocations and zero goroutines per install: after two
// warm-up jobs (pool, rings and batch buffers grown), a full
// 2048-install job costs only its per-job bookkeeping — the job
// object, its progress trace, one pooled-state acquire and at most a
// couple of re-armed timers — never anything proportional to the
// install count. The old goroutine-per-install path spent >6 heap
// allocations and one goroutine on every single install; a regression
// back to per-install costs blows the budget 25x over.
func TestDispatchPathAllocs(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()

	h.runJob(t, 1) // warm: pools, rings, batch buffers, sink maps
	h.runJob(t, 2) // warm: steady-state shapes settled

	goroutines := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	h.runJob(t, 3)
	runtime.ReadMemStats(&ms)
	delta := ms.Mallocs - before

	n := uint64(h.plan.len())
	// Per-job bookkeeping (job, trace slices, layer aggregates, timer
	// re-arms) stays well under 512 mallocs; per-install leaks show up
	// as >= 2048.
	if delta >= n/4 {
		t.Fatalf("dispatching %d installs cost %d mallocs (%.2f/install), want < %d total",
			n, delta, float64(delta)/float64(n), n/4)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Fatalf("dispatching grew the goroutine count %d -> %d; the dispatch path must not spawn per-install goroutines",
			goroutines, after)
	}
	t.Logf("%d installs: %d mallocs (%.3f/install)", n, delta, float64(delta)/float64(n))

	// Rollback arm: undoing all 2048 installs is one more walk on the
	// same path. Building the reverse plan costs two mallocs per undo —
	// its dependency list and its undo FlowMod — and walking it must add
	// nothing per undo on top.
	spec := &rollbackSpec{
		in:    core.MustInstance(topo.Path{1, 2}, topo.Path{1, 9, 10, 2}, 0),
		match: flowMatch("10.9.0.2"),
	}
	job := newJob(h.plan, SubmitOptions{}, spec)
	all := make([]bool, h.plan.len())
	for i := range all {
		all[i] = true
	}
	undo := func() {
		t.Helper()
		rolledBack, _, err := h.e.runRollback(context.Background(), job, spec, all)
		if err != nil || len(rolledBack) != len(all) {
			t.Fatalf("rollback undid %d of %d installs: %v", len(rolledBack), len(all), err)
		}
	}
	undo() // warm: the reverse plan's shapes
	goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms)
	before = ms.Mallocs
	undo()
	runtime.ReadMemStats(&ms)
	delta = ms.Mallocs - before
	if delta >= 2*n+n/4 {
		t.Fatalf("rolling back %d installs cost %d mallocs (%.2f/undo), want < %d total",
			n, delta, float64(delta)/float64(n), 2*n+n/4)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Fatalf("rolling back grew the goroutine count %d -> %d", goroutines, after)
	}
	t.Logf("%d undos: %d mallocs (%.3f/undo)", n, delta, float64(delta)/float64(n))
}
