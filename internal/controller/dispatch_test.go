package controller

import (
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// gridFlowA and gridFlowB are the two disjoint update problems used
// by the dispatcher tests on a 4x4 grid (rows 1-4/5-8/9-12/13-16):
// flow A rides rows 1-2, flow B rows 3-4.
func gridFlowA() (*core.Instance, *core.Instance) {
	fwd := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 6, 7, 8, 4}, 0)
	back := core.MustInstance(topo.Path{1, 5, 6, 7, 8, 4}, topo.Path{1, 2, 3, 4}, 0)
	return fwd, back
}

func gridFlowB() *core.Instance {
	return core.MustInstance(topo.Path{9, 10, 11, 12}, topo.Path{9, 13, 14, 15, 16, 12}, 0)
}

// TestEngineDisjointJobsRunConcurrently proves both dispatcher
// properties at once:
//
//  1. Jobs with disjoint switch/match footprints overlap: a fast
//     disjoint job finishes while a slow job is still executing.
//  2. Overlapping jobs keep submission order: the second job on the
//     slow flow starts its rounds only after the first one's last
//     barrier.
func TestEngineDisjointJobsRunConcurrently(t *testing.T) {
	g := topo.Grid(4, 4)
	// Rows 1-2 (switches 1..8) answer slowly; rows 3-4 are instant.
	tb := newTestbedWithConfig(t, g, Config{Topology: g},
		func(n topo.NodeID) switchsim.Config {
			cfg := switchsim.Config{Node: n}
			if n <= 8 {
				cfg.CtrlLatency = netem.Fixed(75 * time.Millisecond)
			}
			return cfg
		})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	inA, inA2 := gridFlowA()
	inB := gridFlowB()
	schedule := func(in *core.Instance) *core.Plan {
		s, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	jobA, err := tb.ctrl.Engine().SubmitPlan(inA, schedule(inA), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobA2, err := tb.ctrl.Engine().SubmitPlan(inA2, schedule(inA2), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := tb.ctrl.Engine().SubmitPlan(inB, schedule(inB), flowMatch("10.0.0.9"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The disjoint fast job must complete while the slow flow's first
	// job is still in flight (its switches add >=150ms per round).
	if err := jobB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := jobA.State(); st == JobDone || st == JobFailed {
		t.Fatalf("job A already %v when disjoint job B finished — no overlap", st)
	}

	if err := jobA2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if jobA.State() != JobDone {
		t.Fatalf("job A state %v after its successor finished", jobA.State())
	}

	// Per-flow FIFO: A2's first round starts only after A's last
	// barrier.
	tA, tA2 := jobA.timings(), jobA2.timings()
	if len(tA) == 0 || len(tA2) == 0 {
		t.Fatal("missing timings")
	}
	if jobA2.at(tA2[0].Started).Before(jobA.at(tA[len(tA)-1].Finished)) {
		t.Fatal("overlapping job A2 started before job A's last barrier")
	}
	// Submission order is preserved in the listing.
	jobs := tb.ctrl.Engine().Jobs()
	if len(jobs) != 3 || jobs[0].ID != jobA.ID || jobs[1].ID != jobA2.ID || jobs[2].ID != jobB.ID {
		t.Fatalf("jobs = %v", jobs)
	}
}

// TestJobSubscribeReplaysAndTerminates pins the watch contract the SSE
// endpoint builds on: a late subscriber sees every round exactly once
// in order, then the terminal event, then the stream ends.
func TestJobSubscribeReplaysAndTerminates(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	early := job.Subscribe()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	late := job.Subscribe() // after completion: pure replay

	for name, cur := range map[string]*Cursor{"early": early, "late": late} {
		var rounds []int
		var terminal *JobEvent
		for ev, more, ok := cur.poll(); ok || more != nil; ev, more, ok = cur.poll() {
			switch {
			case !ok:
				t.Fatalf("%s: the stream of a finished job waits for more", name)
			case ev.Round != nil:
				rounds = append(rounds, ev.Round.Round)
			case ev.Install == nil:
				terminal = &ev
			}
		}
		if len(rounds) != sched.Depth() {
			t.Fatalf("%s: saw %d round events, want %d", name, len(rounds), sched.Depth())
		}
		for i, r := range rounds {
			if r != i {
				t.Fatalf("%s: round events out of order: %v", name, rounds)
			}
		}
		if terminal == nil || terminal.State != JobDone {
			t.Fatalf("%s: terminal event = %+v", name, terminal)
		}
	}
}

// registeredSinks counts the barrier sinks registered across every
// connected datapath.
func registeredSinks(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, dp := range c.datapaths {
		dp.mu.Lock()
		n += len(dp.sinks)
		dp.mu.Unlock()
	}
	return n
}

// TestTimedOutInstallDeregistersSink pins the sink lifecycle on the
// fault path: an install whose barrier deadline expires (forward and
// again in the rollback walk) must not leave its sink registered on a
// switch that stays connected, and a reply that shows up after its walk
// gave up is ignored — not routed to whoever owns the pooled ack
// channel by then.
func TestTimedOutInstallDeregistersSink(t *testing.T) {
	const roundTimeout = 300 * time.Millisecond
	const lateBy = 3 * roundTimeout
	for name, fault := range map[string]switchsim.Faults{
		"dropped": {DropBarriers: true},
		"late":    {BarrierFaults: netem.Faults{ReorderProb: 1, ReorderDelay: netem.Fixed(lateBy)}},
	} {
		t.Run(name, func(t *testing.T) {
			g := topo.Fig1()
			tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: roundTimeout},
				func(n topo.NodeID) switchsim.Config {
					cfg := switchsim.Config{Node: n}
					if n == 7 {
						cfg.Faults = fault
					}
					return cfg
				})
			job, _ := submitAbortJob(t, tb, ModeController)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("job error = %v, want a barrier deadline", err)
			}
			f := job.Failure()
			if f == nil || f.Phase != PhaseRollbackFailed {
				t.Fatalf("failure = %+v, want phase %q (7 answers no barrier in time, forward or back)", f, PhaseRollbackFailed)
			}
			assertRolledBackInstalled(t, f)
			if n := registeredSinks(tb.ctrl); n != 0 {
				t.Fatalf("%d barrier sinks still registered after both walks timed out at 7", n)
			}
			// A direct Barrier that gives up on its ctx cleans up the same way.
			bctx, bcancel := context.WithTimeout(ctx, 20*time.Millisecond)
			err := barrier(bctx, tb.ctrl, 7)
			bcancel()
			if err == nil {
				t.Fatal("barrier to 7 answered in time")
			}
			if n := registeredSinks(tb.ctrl); n != 0 {
				t.Fatalf("%d barrier sinks still registered after a cancelled Barrier", n)
			}
			// Let every held-back reply arrive: nobody waits for them anymore.
			dropped := metrics.DispatchAcksDropped.Value()
			time.Sleep(lateBy + 100*time.Millisecond)
			if err := barrier(ctx, tb.ctrl, 1); err != nil {
				t.Fatalf("barrier on a healthy switch after the late replies: %v", err)
			}
			if n := registeredSinks(tb.ctrl); n != 0 {
				t.Fatalf("%d barrier sinks registered at rest", n)
			}
			if got := metrics.DispatchAcksDropped.Value(); got != dropped {
				t.Fatalf("late replies reached an ack channel: %d acks dropped", got-dropped)
			}
			if v := tb.ctrl.Engine().disp.inflight.Value(); v != 0 {
				t.Fatalf("in-flight gauge = %d at rest", v)
			}
		})
	}
}

// rollbackOnSlowSwitches aborts a fully dispatched comb reroute the way
// recovery does for a job it cannot adopt — no forward pass, every node
// handed to the abort path as its undo set — on switches that take 10 ms
// per control message, and returns the number of undos and the peak
// goroutine growth while the abort (verify, then the rollback walk) ran.
func rollbackOnSlowSwitches(t *testing.T, k, chain int) (undos int, grew int) {
	t.Helper()
	ti := topo.Comb(k, chain)
	tb := newTestbedWithConfig(t, ti.Graph, Config{Topology: ti.Graph},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, CtrlLatency: netem.Fixed(10 * time.Millisecond)}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, ti.Old, flowMatch("10.0.0.2"), ""); err != nil {
		t.Fatal(err)
	}
	in := core.MustInstance(ti.Old, ti.New, 0)
	sched, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	e := tb.ctrl.Engine()
	job, err := e.planJob(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	undos = job.NumInstalls()
	all := make([]bool, undos)
	for i := range all {
		all[i] = true
	}

	batched := metrics.DispatchBatchMsgs.Sum()
	base := steadyGoroutines()
	var peak atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				if n := int64(steadyGoroutines()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	report, err := e.abort(ctx, job, errors.New("injected"), all)
	close(stop)
	<-stopped
	if err == nil || report.Phase != PhaseRolledBack || !report.RollbackVerified || len(report.RolledBack) != undos {
		t.Fatalf("abort = %+v, %v; want %d undos rolled back", report, err, undos)
	}
	assertRolledBackInstalled(t, report)
	// The reverse plan's stages are edge-free undo stages, decided by
	// the branching search: its verdict is exact, not sampled.
	if err := e.verifyRollback(job, job.rollback, all); err != nil {
		t.Fatalf("the %d-undo reverse plan was not decided exactly: %v", undos, err)
	}
	// Every undo is a FlowMod and a barrier, both in one batched write.
	if got := metrics.DispatchBatchMsgs.Sum() - batched; got < int64(2*undos) {
		t.Fatalf("%d undos put %d messages through batched writes, want >= %d", undos, got, 2*undos)
	}
	if v := e.disp.inflight.Value(); v != 0 {
		t.Fatalf("in-flight gauge = %d after the rollback", v)
	}
	return undos, int(peak.Load()) - base
}

// TestRollbackRunsOnDispatchPath pins the rollback walk to the dispatch
// path: its undos go out as batched writes, the in-flight gauge returns
// to zero, and the goroutine count while undos are in flight does not
// depend on how many there are. The one pool abort may start is
// verify.Plan's, at most GOMAXPROCS workers for the whole plan, and a
// small plan may not fill it; that is the allowance beyond noise.
func TestRollbackRunsOnDispatchPath(t *testing.T) {
	_, small := rollbackOnSlowSwitches(t, 1, 1)
	undos, big := rollbackOnSlowSwitches(t, 8, 4)
	if undos < 32 {
		t.Fatalf("big rollback has %d undos, want >= 32", undos)
	}
	if verifyPool := runtime.GOMAXPROCS(0); big > small+2+verifyPool {
		t.Fatalf("goroutines grew by %d during a %d-undo abort but by %d during a small one (verify pool allowance %d): rollback must not spawn per-undo goroutines",
			big, undos, small, verifyPool)
	}
}

// sparseCombJob plans a sparse Peacock reroute of ti on a fresh
// testbed whose switches hold the old path, and returns the job with an
// undo set naming every node: a fully dispatched job as the abort path
// sees it, as rollbackOnSlowSwitches builds one.
func sparseCombJob(t *testing.T, ti topo.TwoPathInstance) (*testbed, *Job, []bool) {
	t.Helper()
	tb := newTestbed(t, ti.Graph, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, ti.Old, flowMatch("10.0.0.2"), ""); err != nil {
		t.Fatal(err)
	}
	in := core.MustInstance(ti.Old, ti.New, 0)
	sched, err := core.PlanByName(in, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().planJob(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, job.NumInstalls())
	for i := range all {
		all[i] = true
	}
	return tb, job, all
}

// TestRollbackRefusedWhenInexact aborts the sparse Peacock reroute of a
// 24-tooth comb with one-switch teeth. Its reverse plan is clean but
// not decided: the walk search branches at each of the 24 teeth, 2^24
// walks past the default budget, so the stage is inexact. The abort
// must refuse it — stuck, not verified, nothing undone, no FlowMod
// sent.
func TestRollbackRefusedWhenInexact(t *testing.T) {
	tb, job, all := sparseCombJob(t, topo.Comb(24, 1))
	e := tb.ctrl.Engine()
	if err := e.verifyRollback(job, job.rollback, all); err == nil || !strings.Contains(err.Error(), "reverse plan inexact") {
		t.Fatalf("reverse plan gate: %v, want ok but inexact", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	batched := metrics.DispatchBatchMsgs.Sum()
	report, err := e.abort(ctx, job, errors.New("injected"), all)
	if err == nil || !strings.Contains(err.Error(), "rollback refused") {
		t.Fatalf("abort error = %v, want the refusal", err)
	}
	if report.Phase != PhaseStuck || report.RollbackVerified || len(report.RolledBack) != 0 || len(report.Stuck) == 0 {
		t.Fatalf("abort = %+v, want stuck, unverified, nothing undone", report)
	}
	if got := metrics.DispatchBatchMsgs.Sum() - batched; got != 0 {
		t.Fatalf("a refused rollback put %d messages on the wire", got)
	}
}

// TestRollbackVerifiedOnSparseComb aborts the sparse Peacock reroute of
// topo.Comb(12, 8) the same way. Its reverse plan is one 108-node stage
// with 96 edges, which the walk search decides exactly and clean at the
// default budget, so the abort rolls every node back, verified, and
// the flow runs along the old path again (to the destination switch:
// the comb has no host).
func TestRollbackVerifiedOnSparseComb(t *testing.T) {
	ti := topo.Comb(12, 8)
	tb, job, all := sparseCombJob(t, ti)
	e := tb.ctrl.Engine()
	if err := e.verifyRollback(job, job.rollback, all); err != nil {
		t.Fatalf("reverse plan gate: %v, want decided and clean", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := e.abort(ctx, job, errors.New("injected"), all)
	if err == nil || report.Phase != PhaseRolledBack || !report.RollbackVerified || len(report.RolledBack) != len(all) {
		t.Fatalf("abort = %+v, %v; want all %d undos rolled back, verified", report, err, len(all))
	}
	assertRolledBackInstalled(t, report)
	if res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64); !res.Visited.Equal(ti.Old) {
		t.Fatalf("probe after the rollback: %+v, want the walk %v", res, ti.Old)
	}
}

// TestInstallPathOneRoundTrip pins the policy install as a walk of a
// plan without edges: every hop gets its FlowAdd and barrier at once,
// so a k-hop path costs about what one switch costs, not k barrier
// round trips in a row.
func TestInstallPathOneRoundTrip(t *testing.T) {
	const hops = 12
	sim := simclock.NewSim(time.Time{})
	stop := sim.AutoAdvance(300 * time.Microsecond)
	t.Cleanup(stop)
	g := topo.Linear(hops)
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Clock: sim},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, CtrlLatency: netem.Fixed(100 * time.Millisecond), Clock: sim}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := sim.Now()
	if err := barrier(ctx, tb.ctrl, 1); err != nil {
		t.Fatal(err)
	}
	rtt := sim.Now().Sub(start)

	path := make(topo.Path, hops)
	for i := range path {
		path[i] = topo.NodeID(i + 1)
	}
	start = sim.Now()
	if err := tb.ctrl.InstallPath(ctx, path, flowMatch("10.0.0.2"), ""); err != nil {
		t.Fatal(err)
	}
	took := sim.Now().Sub(start)
	// A FlowAdd and the barrier behind it: two control messages where
	// the bare barrier is one. Serial barriers took hops+1.
	if took > rtt*hops/2 {
		t.Fatalf("installing a %d-hop path took %v virtual time with a %v barrier round trip: hops are barriered one after another",
			hops, took, rtt)
	}
	for n := 1; n < hops; n++ {
		if l := tb.fabric.Switch(topo.NodeID(n)).Table().Len(); l != 1 {
			t.Fatalf("switch %d holds %d rules after InstallPath, want 1", n, l)
		}
	}
}

// TestWriteFailureSettlesOnTheSpot: a connection whose write fails
// mid-wave leaves exactly that install dispatched beside the ones
// written before it, and the wave's later queued installs not — the
// walk ends the instant it fails, with nothing left to fence. The
// rollback then covers exactly the dispatched set, and no barrier sink
// outlives either walk.
func TestWriteFailureSettlesOnTheSpot(t *testing.T) {
	h := newFakeFleet(t, true)
	defer h.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.conns[3].onWrite = func() error { return io.ErrClosedPipe } // switch 4

	plan := fakePlan("10.9.6.1", 1, 6, 2) // first wave: nodes 0..5 on switches 1..6
	dispatched, confirmed, err := h.e.walk(ctx, walkSpec{plan: &plan})
	if !errors.Is(err, io.ErrClosedPipe) || !strings.HasPrefix(err.Error(), "install at 4 (layer 0): sending flowmod: ") {
		t.Fatalf("walk error = %v, want the failed write at switch 4", err)
	}
	want := make([]bool, plan.len())
	for i := 0; i <= 3; i++ {
		want[i] = true // 0..2 written and held, 3 failed on the wire
	}
	if !slices.Equal(dispatched, want) || slices.Contains(confirmed, true) {
		t.Fatalf("dispatched %v confirmed %v, want %v and none", dispatched, confirmed, want)
	}
	if n := registeredSinks(h.c); n != 0 {
		t.Fatalf("%d barrier sinks registered after the failed walk", n)
	}
	if r, f := h.e.disp.ready.Value(), h.e.disp.inflight.Value(); r != 0 || f != 0 {
		t.Fatalf("ready gauge %d, in-flight gauge %d after the walk", r, f)
	}

	h.conns[3].onWrite = nil
	spec := &rollbackSpec{in: core.MustInstance(topo.Path{1, 2}, topo.Path{1, 9, 10, 2}, 0), match: flowMatch("10.9.6.1")}
	var undone []bool
	rolled := make(chan error, 1)
	go func() {
		var err error
		_, undone, err = h.e.runRollback(ctx, newJob(plan, SubmitOptions{}, spec), spec, dispatched)
		rolled <- err
	}()
	h.held(t, 4) // the undos of 0..3, one wave
	h.answer()
	if err := <-rolled; err != nil || !slices.Equal(undone, want) {
		t.Fatalf("rollback undid %v (%v), want %v", undone, err, want)
	}
	if n := registeredSinks(h.c); n != 0 {
		t.Fatalf("%d barrier sinks registered after the rollback", n)
	}
}

// TestCancelledWalkWritesNothingMore: once a walk's ctx has ended, no
// further byte of it reaches any switch — here ctx ends inside the third
// install's write, and the wave's other three are never written.
func TestCancelledWalkWritesNothingMore(t *testing.T) {
	h := newFakeFleet(t, true)
	defer h.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writes := 0
	for _, c := range h.conns {
		c.onWrite = func() error {
			if writes++; writes == 3 {
				cancel()
			}
			return nil
		}
	}

	plan := fakePlan("10.9.6.2", 1, 6, 2)
	dispatched, confirmed, err := h.e.walk(ctx, walkSpec{plan: &plan})
	if !errors.Is(err, context.Canceled) || dispatched != nil || confirmed != nil {
		t.Fatalf("walk = %v, %v, %v; want context.Canceled and no sets", dispatched, confirmed, err)
	}
	if writes != 3 {
		t.Fatalf("%d writes reached the fleet, want 3: the walk wrote on after its ctx ended", writes)
	}
	if n := registeredSinks(h.c); n != 0 {
		t.Fatalf("%d barrier sinks registered after the walk was cut off", n)
	}
	if r, f := h.e.disp.ready.Value(), h.e.disp.inflight.Value(); r != 0 || f != 0 {
		t.Fatalf("ready gauge %d, in-flight gauge %d after the walk", r, f)
	}
}
