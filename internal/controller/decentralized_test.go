package controller

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// fig1Instance is the paper's running example with its waypoint.
func fig1Instance(t *testing.T) *core.Instance {
	t.Helper()
	return core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
}

// runPlanJob installs the old path and submits the given plan, waiting
// for the terminal state.
func runPlanJob(t *testing.T, tb *testbed, in *core.Instance, p *core.Plan, mode ExecMode) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, in.Old, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, p, flowMatch("10.0.0.2"), SubmitOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait(ctx)
	return job
}

// crossSwitchEdges counts the plan's happens-before edges whose
// endpoints live on different switches — the peer acks a clean
// decentralized run must send.
func crossSwitchEdges(p *core.Plan) int {
	cross := 0
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			if p.Nodes[d].Switch != p.Nodes[i].Switch {
				cross++
			}
		}
	}
	return cross
}

// TestDecentralizedMatchesControllerMode runs the same sparse plan
// through both dispatch paths and demands the observable outcome be
// the same: data plane on the new path, one install event per plan
// node with the releasing predecessor attached, layers published in
// order — while the decentralized run's control-channel traffic
// collapses to two messages per switch.
func TestDecentralizedMatchesControllerMode(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		job  *Job
		path topo.Path
	}
	run := func(mode ExecMode) outcome {
		tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{
				Node:           n,
				InstallLatency: netem.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
				PeerLatency:    netem.Fixed(500 * time.Microsecond),
			}
		})
		job := runPlanJob(t, tb, in, p, mode)
		if job.State() != JobDone {
			t.Fatalf("%v job state = %v (err %v)", mode, job.State(), job.Err())
		}
		res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
		if res.Outcome != switchsim.ProbeDelivered {
			t.Fatalf("%v post-update probe = %+v", mode, res)
		}
		return outcome{job: job, path: res.Visited}
	}

	ctrl := run(ModeController)
	dec := run(ModeDecentralized)

	if !ctrl.path.Equal(dec.path) {
		t.Fatalf("paths diverge: controller %v, decentralized %v", ctrl.path, dec.path)
	}
	if !dec.path.Equal(in.New) {
		t.Fatalf("decentralized path %v, want %v", dec.path, in.New)
	}
	if got, want := len(dec.job.Installs()), len(p.Nodes); got != want {
		t.Fatalf("decentralized installs = %d, want %d", got, want)
	}
	if got, want := len(dec.job.timings()), len(ctrl.job.timings()); got != want {
		t.Fatalf("decentralized rounds = %d, controller rounds = %d", got, want)
	}
	for i, inst := range dec.job.Installs() {
		if inst.Layer > 0 && inst.ReleasedBy == 0 {
			t.Fatalf("install %d (layer %d at switch %d) has no releasing predecessor", i, inst.Layer, inst.Node)
		}
		if inst.Finished < inst.Started {
			t.Fatalf("install %d finished before it started", i)
		}
	}

	ctrlTotal, _ := ctrl.job.Messages()
	decTotal, decPer := dec.job.Messages()
	if ctrlTotal.Peer != 0 {
		t.Fatalf("controller mode sent %d peer messages", ctrlTotal.Peer)
	}
	if want := crossSwitchEdges(p); decTotal.Peer != want {
		t.Fatalf("decentralized peer messages = %d, want %d (one per cross-switch edge)", decTotal.Peer, want)
	}
	for n, ms := range decPer {
		if ms.Ctrl != 2 {
			t.Fatalf("switch %d exchanged %d control messages, want 2 (push + report)", n, ms.Ctrl)
		}
	}
	if decTotal.Ctrl >= ctrlTotal.Ctrl {
		t.Fatalf("decentralized control traffic (%d) not below controller-driven (%d)", decTotal.Ctrl, ctrlTotal.Ctrl)
	}
}

// TestDecentralizedDuplicateAcksIdempotent doubles every peer ack on
// the wire; the agents must absorb the duplicates (counting them) and
// the update must still converge to the correct data plane.
func TestDecentralizedDuplicateAcksIdempotent(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{
			Node:        n,
			PeerLatency: netem.Uniform{Min: 0, Max: time.Millisecond},
			Faults:      switchsim.Faults{DuplicatePeerAcks: true},
		}
	})
	job := runPlanJob(t, tb, in, p, ModeDecentralized)
	if job.State() != JobDone {
		t.Fatalf("job state = %v (err %v)", job.State(), job.Err())
	}
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(in.New) {
		t.Fatalf("post-update probe = %+v", res)
	}
	// The job is done once every install reported, but the delayed
	// duplicate of an ack can still be in flight then: wait for the
	// agents to absorb all of them rather than reading mid-delivery.
	want := crossSwitchEdges(p)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		dups := 0
		for _, n := range topo.Fig1().Nodes() {
			if _, _, d, ok := tb.fabric.Switch(n).PlanAckStats(job.ID); ok {
				dups += d
			}
		}
		if dups == want {
			break
		}
		if dups > want || time.Now().After(deadline) {
			t.Fatalf("absorbed %d duplicate acks, want %d (every cross-switch edge doubled)", dups, want)
		}
	}
	total, _ := job.Messages()
	if want := 2 * crossSwitchEdges(p); total.Peer != want {
		t.Fatalf("peer messages = %d, want %d", total.Peer, want)
	}
}

// TestDecentralizedAgentsForgetFinishedJobs: a push names the oldest
// job the controller still holds, and the plan agents forget the
// finished jobs below it, so a long-running switch keeps no plan of a
// job the controller is done with. The newest job stays: nothing has
// told the switches the controller no longer needs it.
func TestDecentralizedAgentsForgetFinishedJobs(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config { return switchsim.Config{Node: n} })
	first := runPlanJob(t, tb, in, p, ModeDecentralized)
	last := runPlanJob(t, tb, in, p, ModeDecentralized)
	if first.State() != JobDone || last.State() != JobDone {
		t.Fatalf("job states %v, %v (errs %v, %v)", first.State(), last.State(), first.Err(), last.Err())
	}
	for _, nd := range p.Nodes {
		s := tb.fabric.Switch(nd.Switch)
		if _, _, _, ok := s.PlanAckStats(first.ID); ok {
			t.Fatalf("switch %d still holds job %d, finished before job %d was pushed", nd.Switch, first.ID, last.ID)
		}
		if _, _, _, ok := s.PlanAckStats(last.ID); !ok {
			t.Fatalf("switch %d forgot job %d, the newest", nd.Switch, last.ID)
		}
	}
}

// TestDecentralizedLostAckTimesOut drops every peer ack: installs with
// in-edges can never be released, so the job must fail with the
// progress timeout and a report naming the stuck installs.
func TestDecentralizedLostAckTimesOut(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, Faults: switchsim.Faults{DropPeerAcks: true}}
		})
	job := runPlanJob(t, tb, in, p, ModeDecentralized)
	if job.State() != JobFailed {
		t.Fatalf("job state = %v, want failed", job.State())
	}
	msg := job.Err().Error()
	if !strings.Contains(msg, "stalled") || !strings.Contains(msg, "unconfirmed") {
		t.Fatalf("failure report lacks stall diagnosis: %v", msg)
	}
	if !strings.Contains(msg, "awaiting") && !strings.Contains(msg, "ack or completion report lost") {
		t.Fatalf("failure report lacks dependency detail: %v", msg)
	}
	if f := job.Failure(); f != nil {
		assertRolledBackInstalled(t, f)
	}
}

// TestDecentralizedReorderedAcksConverge randomizes peer latency so
// acks overtake each other (and partitions, via slow control
// channels); the early-ack buffer must hold the race.
func TestDecentralizedReorderedAcksConverge(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, topo.Fig1(), func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{
			Node:        n,
			CtrlLatency: netem.Uniform{Min: 0, Max: 5 * time.Millisecond},
			PeerLatency: netem.Uniform{Min: 0, Max: 5 * time.Millisecond},
		}
	})
	job := runPlanJob(t, tb, in, p, ModeDecentralized)
	if job.State() != JobDone {
		t.Fatalf("job state = %v (err %v)", job.State(), job.Err())
	}
	res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(in.New) {
		t.Fatalf("post-update probe = %+v", res)
	}
}

// tableRules renders switch n's flow table, sorted, for before/after
// comparisons.
func tableRules(fabric *switchsim.Fabric, n topo.NodeID) string {
	var rs []string
	for _, e := range fabric.Switch(n).Table().Snapshot() {
		rs = append(rs, fmt.Sprint(e.Match, e.Priority, e.Actions))
	}
	slices.Sort(rs)
	return strings.Join(rs, "; ")
}

// allTableRules renders every switch's flow table.
func allTableRules(fabric *switchsim.Fabric) map[topo.NodeID]string {
	out := map[topo.NodeID]string{}
	for _, n := range fabric.Graph().Nodes() {
		out[n] = tableRules(fabric, n)
	}
	return out
}

// TestDecentralizedPushFailsPartway: a plan push that fails after
// earlier ones went out leaves those switches executing their share of
// the plan, nodes waiting on peer acks. The job aborts at once, with
// a FailureReport: reconcile's query halts every pushed switch's agent
// before it answers, so no deferred install can land after an undo. It
// ends rolled-back, not rollback-failed: the switch the push never
// reached has nothing dispatched and stays silent, so no undo is sent
// to it. And it ends in less than RoundTimeout — nothing waits for the
// switches to go quiet — with every switch back on the rules it held
// before the job.
func TestDecentralizedPushFailsPartway(t *testing.T) {
	in := fig1Instance(t)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var victim topo.NodeID // the highest switch id, pushed last: the others went out
	for _, nd := range p.Nodes {
		victim = max(victim, nd.Switch)
	}
	const peer = 10 * time.Millisecond
	const roundTimeout = 300 * time.Millisecond
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: roundTimeout},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, PeerLatency: netem.Fixed(peer)}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, in.Old, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	before := allTableRules(tb.fabric)
	tb.fabric.Switch(victim).Stop()
	waitFor(t, "the stopped switch to disconnect", func() bool { return !slices.Contains(tb.ctrl.Datapaths(), uint64(victim)) })

	job, err := tb.ctrl.Engine().SubmitPlan(in, p, flowMatch("10.0.0.2"), SubmitOptions{Mode: ModeDecentralized})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("pushing plan to %d", victim)) {
		t.Fatalf("job error = %v, want the failed push to %d", err, victim)
	}
	f := job.Failure()
	if f == nil {
		t.Fatal("a job whose push failed partway has no failure report")
	}
	if !f.RollbackVerified || f.Phase != PhaseRolledBack || len(f.RolledBack) == 0 {
		t.Fatalf("failure report = %+v, want a verified rollback in phase %q", f, PhaseRolledBack)
	}
	if slices.Contains(f.RolledBack, victim) {
		t.Fatalf("rolled back %v includes %d, which the push never reached", f.RolledBack, victim)
	}
	assertRolledBackInstalled(t, f)
	if d := job.TotalDuration(); d >= roundTimeout {
		t.Fatalf("job took %v, want < RoundTimeout %v: the abort waited instead of asking", d, roundTimeout)
	}
	time.Sleep(10 * peer) // any install still owed would land by now
	for n, rules := range allTableRules(tb.fabric) {
		if rules != before[n] {
			t.Fatalf("switch %d holds [%s] after the rollback, held [%s] before the job", n, rules, before[n])
		}
	}
}

// TestDecentralizedLostReportUndone: switch 8 crashes right after its
// plan agent applies its one FlowMod — no peer ack, no completion
// report — and comes back with its table intact. The job stalls, and
// the rule 8 installed is one no report mentions: only asking the
// switch finds it. After the stall's abort every switch holds exactly
// the rules it held before the job.
func TestDecentralizedLostReportUndone(t *testing.T) {
	faults := map[topo.NodeID]switchsim.Faults{8: {DisconnectAfterFlowMods: 1}}
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			return switchsim.Config{Node: n, Faults: faults[n]}
		})
	reconnectAfterCrash(t, tb, 8, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	before := allTableRules(tb.fabric)
	in := fig1Instance(t)
	sched, err := core.Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Mode: ModeDecentralized})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("job error = %v, want a stall", err)
	}
	f := job.Failure()
	if f == nil || f.Phase != PhaseRolledBack || !f.RollbackVerified {
		t.Fatalf("failure = %+v, want a verified rollback", f)
	}
	if !slices.Contains(f.Installed, 8) || !slices.Contains(f.RolledBack, 8) {
		t.Fatalf("installed %v / rolled back %v miss switch 8, whose rule took effect unreported", f.Installed, f.RolledBack)
	}
	assertRolledBackInstalled(t, f)
	for n, rules := range allTableRules(tb.fabric) {
		if rules != before[n] {
			t.Fatalf("switch %d holds [%s] after the rollback, held [%s] before the job", n, rules, before[n])
		}
	}
}
