//go:build !race

package controller

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/topo"
)

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
	// same path. Building the reverse plan costs one malloc per undo —
	// its dependency list; an undo is a rule in one slice, its FlowMod
	// built only in the walk's pooled state as it is written — and
	// walking it must add nothing per undo on top.
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
	if delta >= n+n/4 {
		t.Fatalf("rolling back %d installs cost %d mallocs (%.2f/undo), want < %d total",
			n, delta, float64(delta)/float64(n), n+n/4)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Fatalf("rolling back grew the goroutine count %d -> %d", goroutines, after)
	}
	t.Logf("%d undos: %d mallocs (%.3f/undo)", n, delta, float64(delta)/float64(n))
}

// TestAdmitAllocs pins what building a job for admission costs
// (planJob: validate, materialize the execution DAG, the footprint) on
// durable-bigplan's plans: a ladder reroute along one row of
// topo.Grid(2, cols) to the detour through the next, peacock, sparse —
// 33 nodes at 32 columns. Every node is a rule in one slice, so the cost
// does not grow with the plan: the 33-node plan costs what a 5-node one
// does. With a FlowMod built per node at admission it was 3 more
// allocations per node.
func TestAdmitAllocs(t *testing.T) {
	admit := func(cols int) (nodes int, allocs float64) {
		g := topo.Grid(2, cols)
		c, err := New(Config{Topology: g})
		if err != nil {
			t.Fatal(err)
		}
		old, detour := topo.Path{}, topo.Path{1}
		for col := 1; col <= cols; col++ {
			old = append(old, topo.NodeID(col))
			detour = append(detour, topo.NodeID(cols+col))
		}
		detour = append(detour, topo.NodeID(cols))
		in := core.MustInstance(old, detour, 0)
		p, err := core.PlanByName(in, core.AlgoPeacock, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		match := flowMatch("10.0.0.2")
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := c.engine.planJob(in, p, match, SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		return len(p.Nodes), allocs
	}
	smallN, small := admit(4)
	bigN, big := admit(32)
	t.Logf("planJob: %d nodes %.0f allocs, %d nodes %.0f allocs", smallN, small, bigN, big)
	if big != small {
		t.Fatalf("admitting a %d-node plan costs %.0f allocs and a %d-node one %.0f: admission allocates per node", bigN, big, smallN, small)
	}
}

// TestPlanUpdateAllocs pins what planning one REST update entry costs
// before anything is admitted: a 34-hop ladder reroute (32 switches
// along one row to 34 through the next, as tsubench's durable-bigplan
// submits them), peacock, plan "sparse". With the NodeID maps of
// core.Instance and the schedulers it was 110 allocations.
func TestPlanUpdateAllocs(t *testing.T) {
	u := api.FlowUpdate{NWDst: "10.0.0.2", Algorithm: "peacock", Plan: "sparse", NewPath: []uint64{1}}
	for c := uint64(1); c <= 32; c++ {
		u.OldPath = append(u.OldPath, c)
		u.NewPath = append(u.NewPath, 32+c)
	}
	u.NewPath = append(u.NewPath, 32)
	p, err := planUpdate(u, false)
	if err != nil || p.DAG.NumNodes() != 33 {
		t.Fatalf("planUpdate: %v, %v", p, err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := planUpdate(u, false); err != nil {
			t.Fatal(err)
		}
	}); got > 45 {
		t.Fatalf("planUpdate = %.1f allocs/op, want <= 45", got)
	}
}

// discardResponse is a streaming response writer that keeps nothing.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Flush()                      {}

// TestStatusAndReplayAllocs pins what reading a finished 34-install job
// (two layers of 17) costs the controller: the status body is rendered
// from the install log straight into the response struct, and a watch
// replay walks the log with one cursor and frames every event from the
// same few values. With the per-reader copies of three traces, the
// sorted message map and a channel buffered for the whole job it was 13
// allocations for the status and 83 for the replay; it is 9 and 12.
func TestStatusAndReplayAllocs(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()
	job := h.serve(t, 1, fakePlan("10.9.7.1", 1, 17, 2))
	if st := v1JobStatus(job); len(st.Installs) != 34 || len(st.Rounds) != 2 || len(st.MessagesPerSwitch) != 17 {
		t.Fatalf("status lists %d installs, %d rounds, %d switches", len(st.Installs), len(st.Rounds), len(st.MessagesPerSwitch))
	}
	if got := testing.AllocsPerRun(100, func() { v1JobStatus(job) }); got > 10 {
		t.Fatalf("v1JobStatus = %.1f allocs/op, want <= 10", got)
	}
	rest := h.c.RESTHandler()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/updates/%d/watch", job.ID), nil)
	w := discardResponse{http.Header{}}
	if got := testing.AllocsPerRun(100, func() { rest.ServeHTTP(w, req) }); got > 14 {
		t.Fatalf("watch replay = %.1f allocs/op, want <= 14", got)
	}
}

// TestReconnectAllocs pins what one Stop + Connect of a switch to a
// live controller allocates on both ends of the connection, measured
// until the controller has registered the datapath again: two
// sockets, the handshake's messages, the switch's loop and the
// controller's datapath entry. The read buffers come back from the
// pool the previous connection returned them to, and neither end
// builds a context per connection. With a fresh read buffer per end, a
// cancel context per switch loop and a close callback per controller
// reader it was about 4.6 KB; it is about 2.75 KB.
func TestReconnectAllocs(t *testing.T) {
	g := topo.Fig1()
	tb := newTestbed(t, g, nil)
	sw := tb.fabric.Switch(g.Nodes()[0])
	dpid := sw.DatapathID()
	registered := func(want bool) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Microsecond) {
			tb.ctrl.mu.Lock()
			_, ok := tb.ctrl.datapaths[dpid]
			tb.ctrl.mu.Unlock()
			if ok == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("datapath %d registered = %v, want %v", dpid, ok, want)
			}
		}
	}
	ctx := context.Background()
	reconnect := func() {
		sw.Stop()
		registered(false)
		if err := sw.Connect(ctx, tb.addr); err != nil {
			t.Fatal(err)
		}
		registered(true)
	}
	for i := 0; i < 20; i++ {
		reconnect() // warm: pools, the controller's maps, the listener
	}
	const n = 200
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < n; i++ {
		reconnect()
	}
	runtime.ReadMemStats(&ms)
	perReconnect := (ms.TotalAlloc - before) / n
	t.Logf("one reconnect allocates %d B on both ends", perReconnect)
	const bound = 3500
	if perReconnect > bound {
		t.Fatalf("one reconnect allocates %d B on both ends, want <= %d", perReconnect, bound)
	}
}
