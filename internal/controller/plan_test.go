package controller

import (
	"context"
	"net/http"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// fig1NoWpInstance is the Fig.1 update without a waypoint — the
// instance whose sparse Peacock plan has two independent chains
// (7,8 → 1 and 9,10,11 → 3).
func fig1NoWpInstance(t testing.TB) *core.Instance {
	t.Helper()
	return core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
}

// TestSubmitPlanSparseDispatch runs a sparse plan through the live
// ack-driven engine: the final forwarding state is the new path, every
// install is confirmed exactly once, each install's ReleasedBy names
// one of its plan dependencies, and the synthesized per-layer round
// timings arrive in order.
func TestSubmitPlanSparseDispatch(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := fig1NoWpInstance(t)
	if err := tb.ctrl.InstallPath(ctx, in.Old, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	plan, err := core.PlanByName(in, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sparse {
		t.Fatalf("expected a sparse plan, got %s", plan)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, plan, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	depth, width, critical, sparse := job.shape.depth, job.shape.width, job.shape.critical, job.shape.sparse
	if !sparse || depth != plan.Depth() || width != plan.Width() || critical != plan.CriticalPath() {
		t.Fatalf("job shape = (%d,%d,%d,%t), want plan's (%d,%d,%d,true)",
			depth, width, critical, sparse, plan.Depth(), plan.Width(), plan.CriticalPath())
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(in.New) {
		t.Fatalf("final path = %+v", res)
	}

	installs := job.Installs()
	if len(installs) != plan.NumNodes() {
		t.Fatalf("%d installs, want %d", len(installs), plan.NumNodes())
	}
	depsOf := map[topo.NodeID]map[topo.NodeID]bool{}
	for _, nd := range plan.Nodes {
		m := map[topo.NodeID]bool{}
		for _, d := range nd.Deps {
			m[plan.Nodes[d].Switch] = true
		}
		depsOf[nd.Switch] = m
	}
	confirmed := map[topo.NodeID]bool{}
	for _, it := range installs {
		if confirmed[it.Node] {
			t.Fatalf("switch %d installed twice", it.Node)
		}
		// Dependencies confirmed before the dependent (acks are
		// recorded in confirmation order).
		for d := range depsOf[it.Node] {
			if !confirmed[d] {
				t.Fatalf("install %d confirmed before its dependency %d", it.Node, d)
			}
		}
		confirmed[it.Node] = true
		if len(depsOf[it.Node]) == 0 {
			if it.ReleasedBy != 0 {
				t.Fatalf("root install %d claims release by %d", it.Node, it.ReleasedBy)
			}
		} else if !depsOf[it.Node][it.ReleasedBy] {
			t.Fatalf("install %d released by %d, not one of its deps %v",
				it.Node, it.ReleasedBy, depsOf[it.Node])
		}
	}

	timings := job.timings()
	if len(timings) != plan.Depth() {
		t.Fatalf("%d layer timings, want %d", len(timings), plan.Depth())
	}
	for i, rt := range timings {
		if rt.Round != i {
			t.Fatalf("layer timings out of order: %v", timings)
		}
	}
}

// TestSubmitPlanLayeredMatchesSchedule pins that submitting a layered
// plan behaves exactly like submitting the schedule: same rounds, same
// per-layer switch sets.
func TestSubmitPlanLayeredMatchesSchedule(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	jobS, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobS.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	jobP, err := tb.ctrl.Engine().SubmitPlan(core.MustInstance(in.New, in.Old, topo.Fig1Waypoint),
		mustPlan(t, core.MustInstance(in.New, in.Old, topo.Fig1Waypoint)),
		flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobP.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if jobS.shape.depth != len(jobS.timings()) || jobP.shape.depth != len(jobP.timings()) {
		t.Fatalf("rounds: schedule %d/%d, plan %d/%d",
			jobS.shape.depth, len(jobS.timings()), jobP.shape.depth, len(jobP.timings()))
	}
	if jobP.shape.sparse {
		t.Fatal("layered plan reported sparse")
	}
}

func mustPlan(t *testing.T, in *core.Instance) *core.Plan {
	t.Helper()
	s, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestV1SparsePlanOnTheWire drives the sparse plan end to end over
// REST: the batch response reports the pruned shape, the job status
// carries the install trace with its releasing edges, and the final
// state is correct.
func TestV1SparsePlanOnTheWire(t *testing.T) {
	tb, srv := restTestbed(t)
	_ = tb
	if resp, body := postJSON(t, srv.URL+"/v1/policies", api.PolicyRequest{
		Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: "10.0.0.2", Host: "h2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	u := api.FlowUpdate{
		OldPath:   []uint64{1, 2, 3, 4, 5, 6, 12},
		NewPath:   []uint64{1, 7, 8, 3, 9, 10, 11, 12},
		Algorithm: "peacock",
		NWDst:     "10.0.0.2",
		Plan:      "sparse",
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{Updates: []api.FlowUpdate{u}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	acc := br.Updates[0]
	if acc.Plan == nil || !acc.Plan.Sparse {
		t.Fatalf("accepted plan shape = %+v, want sparse", acc.Plan)
	}
	if acc.Plan.Nodes != 7 || acc.Plan.Edges != 5 || acc.Plan.Depth != 2 || acc.Plan.CriticalPath != 1 {
		t.Fatalf("plan shape = %+v, want 7 nodes / 5 edges / depth 2 / critical 1", acc.Plan)
	}

	var st api.JobStatus
	deadline := time.Now().Add(20 * time.Second)
	for {
		if code := getJSON(t, srv.URL+"/v1/updates/"+itoa(acc.ID), &st); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job = %+v", st)
	}
	if st.Plan == nil || !st.Plan.Sparse || st.Plan.Nodes != 7 {
		t.Fatalf("status plan shape = %+v", st.Plan)
	}
	if len(st.Installs) != 7 {
		t.Fatalf("%d installs on the wire, want 7", len(st.Installs))
	}
	releasers := map[uint64]bool{}
	for _, inst := range st.Installs {
		releasers[inst.ReleasedBy] = true
	}
	// The old-path switches 1 and 3 must have been released by one of
	// their chain dependencies (a new-only switch), not by a global
	// barrier.
	for _, inst := range st.Installs {
		switch inst.Switch {
		case 1:
			if inst.ReleasedBy != 7 && inst.ReleasedBy != 8 {
				t.Fatalf("switch 1 released by %d, want 7 or 8", inst.ReleasedBy)
			}
		case 3:
			if inst.ReleasedBy != 9 && inst.ReleasedBy != 10 && inst.ReleasedBy != 11 {
				t.Fatalf("switch 3 released by %d, want 9, 10 or 11", inst.ReleasedBy)
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
