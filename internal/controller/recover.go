package controller

// This file is the engine's one model of what took effect — reconcile,
// which every abort and every restart asks — and the crash-restart
// recovery path built on it. The controller's own records never settle
// that question: a barrier reply or a completion report can be lost
// while its FlowMod landed, and after a restart the journal knows what
// was sent, not what arrived. Per-switch local state is sufficient to
// close that gap (the insight of the local-verification line of work):
// each switch reports whether the flow's rule is installed and where it
// forwards, plus which plan nodes its plan agent completed, and from
// those local answers the engine reconstructs the job's order ideal.
//
// The recovery decision per mid-flight job:
//
//   - adopt, when every plan switch reported, the applied set is
//     down-closed (an order ideal — a prefix the plan itself could
//     have produced), the journal's confirmed set is contained in it
//     (the network is at least as far along as the last fsync), and
//     every applied node is covered by a journaled dispatch or a plan-
//     agent completion (nothing took effect that nothing ordered).
//     The job resumes ack-driven dispatch with the applied set
//     pre-confirmed; re-sent FlowMods are idempotent MODIFYs.
//
//   - roll back, otherwise: switches unreachable, or the local
//     evidence contradicts the journal. The job takes the abort path
//     with the undo set of the same reconcile — what a live abort
//     would reverse — and the reverse plan is verified against the
//     same base∖I safety argument, so recovery is verified, never
//     assumed.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// RecoveryStats summarizes one Engine.Recover run.
type RecoveryStats struct {
	// Replayed counts journal records read.
	Replayed int
	// Terminal counts jobs the journal already recorded finished.
	Terminal int
	// Requeued counts jobs re-admitted untouched (nothing dispatched
	// before the crash).
	Requeued int
	// Adopted counts mid-flight jobs resumed from their recovered
	// frontier.
	Adopted int
	// RolledBack counts mid-flight jobs sent to the verified rollback
	// path.
	RolledBack int
	// Failed counts jobs non-terminal at the crash whose admit record
	// could not be rebuilt — a record an older engine journaled without
	// a rollback spec — and which could only be marked failed.
	Failed int
}

// Recovered returns the number of non-terminal jobs the restart
// brought back to a live engine (every one reaches a terminal phase).
func (s RecoveryStats) Recovered() int { return s.Requeued + s.Adopted + s.RolledBack }

// relaunch is one live recovered job ready to run: either via the
// normal dispatcher (requeued/adopted) or, when undo is set, via the
// abort path reversing undo with cause.
type relaunch struct {
	job   *Job
	undo  []bool
	cause error
}

// Recover brings back every job of the configured journal, as Open
// folded it: finished jobs become queryable stubs (the newest
// retainTerminal of them), untouched jobs are re-admitted, and
// mid-flight jobs are reconciled against live switch state — adopted
// and resumed when journal and switches agree, rolled back through the
// verified reverse-plan path when they don't. Call it after Start (the
// dispatcher must be running) and after the plan's switches have
// reconnected (WaitForSwitches): each switch is asked once, and one
// that is not connected counts as silent, which pushes its job onto the
// rollback path. ctx bounds the reconciliation only: recovered jobs run
// on the engine's context and finish asynchronously; Wait on them (or
// watch /v1/updates) for outcomes. The journal is compacted to the live
// state before any recovered job re-executes.
func (e *Engine) Recover(ctx context.Context) (RecoveryStats, error) {
	var stats RecoveryStats
	jl := e.c.cfg.Journal
	if jl == nil {
		return stats, nil
	}
	st := jl.TakeState()
	stats.Replayed = st.Frames
	stats.Terminal = len(st.Finished) + st.Forgotten

	e.mu.Lock()
	e.nextID = max(e.nextID, st.LastJob)
	e.evicted += st.Forgotten
	e.recovering = true
	e.mu.Unlock()
	for _, f := range st.Finished {
		var err error
		if !f.Done {
			err = errors.New(f.Error)
		}
		e.addStub(f.ID, f.Admit, err, nil)
	}

	var launches []*relaunch
	var compacted []journal.Record
	for i := range st.Live {
		lj := &st.Live[i]
		job, err := e.rebuildJob(lj.ID, lj.Admit)
		if err != nil {
			stats.Failed++
			e.c.logger.Warn("recovery: rebuilding job failed", "job", lj.ID, "err", err)
			e.addStub(lj.ID, lj.Admit, nil, &FailureReport{
				Phase:           PhaseAborted,
				TriggeringFault: fmt.Sprintf("controller restart: rebuild failed: %v", err),
			})
			continue
		}
		l := &relaunch{job: job}
		dispatched := make([]bool, job.plan.len())
		copy(dispatched, lj.Dispatched)
		switch {
		case !slices.Contains(dispatched, true):
			// Write-ahead discipline: no dispatched record means no
			// FlowMod left for this job — or, after a power loss, that
			// what left is an ideal of the plan, which a re-run passes
			// through again. Re-admit it untouched.
			stats.Requeued++
		case e.adoptOrRollback(ctx, l, dispatched, lj.Confirmed):
			stats.Adopted++
		default:
			stats.RolledBack++
		}
		launches = append(launches, l)
		compacted = append(compacted, liveRecords(lj, dispatched, l)...)
	}

	// Admit the live jobs in id order, through the same admission step
	// as a fresh submission: the blocker counts are recomputed (recovered
	// jobs may conflict with each other or with jobs submitted since the
	// restart), so two recovered jobs on one flow run in journal order.
	// A rollback job shares the lifecycle — blockers, begin, finish —
	// and only swaps execution for the abort path: the reverse plan is
	// verified before it runs, exactly like any mid-plan abort.
	live := make([]*Job, len(launches))
	e.mu.Lock()
	for i, l := range launches {
		run := e.execute
		if l.undo != nil {
			run = func(ctx context.Context, job *Job) (*FailureReport, error) {
				return e.abort(ctx, job, l.cause, l.undo)
			}
		}
		e.admitLocked(l.job, run)
		live[i] = l.job
	}
	e.recovery, e.recovering = &stats, false
	e.mu.Unlock()

	// Snapshot+truncate before anything re-executes: the journal now
	// holds exactly the live state, and new deltas append after it.
	if err := jl.Compact(compacted); err != nil {
		e.c.logger.Warn("recovery: journal compaction failed", "err", err)
	}

	e.release(live)
	return stats, nil
}

// Recovery returns the stats of the engine's last Recover run (ok
// false when recovery never ran).
func (e *Engine) Recovery() (RecoveryStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recovery == nil {
		return RecoveryStats{}, false
	}
	return *e.recovery, true
}

// addStub registers a terminal job reconstructed from the journal — no
// plan, no trace — so the API keeps answering for it across the restart,
// among the retained finished jobs: JobDone when err is nil, JobFailed
// with err otherwise. A non-nil report marks the job failed by the
// restart instead.
func (e *Engine) addStub(id int, a *journal.Admit, err error, report *FailureReport) {
	if report != nil {
		err = fmt.Errorf("controller restart: %s", report.TriggeringFault)
	}
	job := &Job{
		ID:        id,
		Algorithm: a.Algorithm,
		Interval:  a.Interval,
		Mode:      ExecMode(a.Mode),
		Recovered: true,
		state:     JobDone,
		err:       err,
		failure:   report,
		done:      make(chan struct{}),
	}
	if err != nil {
		job.state = JobFailed
	}
	close(job.done)
	e.mu.Lock()
	if _, exists := e.jobs[job.ID]; !exists {
		e.jobs[job.ID] = job
		e.retireLocked(job)
	}
	e.mu.Unlock()
}

// rebuildJob reconstructs a job from its admission record: the update
// instance, the flow match, the journaled execution DAG (update and
// cleanup nodes alike, with their original dependencies), and the
// rollback spec — per-packet for a job journaled as two-phase, whose
// nodes get the two-phase mod builder's FlowMods.
func (e *Engine) rebuildJob(id int, a *journal.Admit) (*Job, error) {
	old := make(topo.Path, len(a.Old))
	for i, v := range a.Old {
		old[i] = topo.NodeID(v)
	}
	newPath := make(topo.Path, len(a.New))
	for i, v := range a.New {
		newPath[i] = topo.NodeID(v)
	}
	in, err := core.NewInstance(old, newPath, topo.NodeID(a.Waypoint))
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	match := openflow.ExactNWDst(nwDstIP(a.NWDst))
	dag, err := core.DecodePlan(a.Plan)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	// Cleanup nodes are the journaled DAG's suffix; anything else was
	// not written by this engine.
	cleanupFrom := len(dag.Nodes) - len(a.Cleanup)
	for k, i := range a.Cleanup {
		if cleanupFrom < 0 || i != cleanupFrom+k {
			return nil, fmt.Errorf("cleanup set %v is not the suffix of the %d-node plan", a.Cleanup, len(dag.Nodes))
		}
	}
	// The journaled DAG goes through the same constructor as a fresh
	// submission — with its cleanup nodes and their recorded
	// dependencies as journaled, not re-derived — so the recovered job
	// executes exactly the plan that was running.
	spec := &rollbackSpec{in: in, match: match, props: core.Property(a.Props), perPacket: a.Algorithm == twoPhaseAlgorithm}
	ep, err := e.flowExecPlan(spec, dag, cleanupFrom, nil)
	if err != nil {
		return nil, err
	}
	job := newJob(ep, SubmitOptions{Interval: a.Interval, Mode: ExecMode(a.Mode)}, spec)
	job.ID = id
	job.Recovered = true
	return job, nil
}

// nwDstIP rebuilds the flow's IPv4 address from its journaled word.
func nwDstIP(v uint32) net.IP {
	return net.IPv4(byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// adoptOrRollback decides a mid-flight job's fate from one reconcile
// against its journaled dispatched set (dense over the plan) and
// confirmed set: adopt, with the applied ideal pre-confirmed, or roll
// back exactly the undo set (filled into l).
func (e *Engine) adoptOrRollback(ctx context.Context, l *relaunch, jdispatched, confirmed []bool) (adopted bool) {
	job := l.job
	n := job.plan.len()
	jconfirmed := make([]bool, n)
	copy(jconfirmed, confirmed)
	r := e.reconcile(ctx, job, jdispatched)
	if r.silent == 0 && Adoptable(job.plan.dag, r.applied, jconfirmed, jdispatched, r.agentDone) {
		job.Adopted = true
		job.preConfirmed = r.applied
		e.c.logger.Info("recovery: adopting job", "job", job.ID,
			"applied", countSet(r.applied), "installs", n)
		return true
	}
	l.undo = r.undo
	l.cause = fmt.Errorf("controller restart: mid-flight state not adoptable (%d of %d nodes on silent switches, %d applied)",
		r.silent, n, countSet(r.applied))
	e.c.logger.Info("recovery: rolling back job", "job", job.ID,
		"silent", r.silent, "applied", countSet(r.applied), "undo", countSet(r.undo))
	return false
}

// reconciled is what one reconcile learned, per plan node: undo, the
// set an abort reverses; applied, the node's switch shows its new
// state; agentDone, the switch's plan agent reported the node
// completed. silent counts nodes whose switch did not answer.
type reconciled struct {
	undo, applied, agentDone []bool
	silent                   int
}

// reconcile is the engine's one answer to "what took effect", asked by
// every abort and by Recover alike. It sends one StateQuery to every
// switch of the job's plan — which halts the job's plan agent there and
// is answered only after every earlier message on that connection took
// effect — and returns, as undo, the down-closure of:
//
//   - every node whose switch answered and does not show the node's old
//     state. "Not old" rather than "applied": a switch that crashed and
//     wiped its table shows neither, and only its undo MODIFY puts the
//     old rule back;
//   - every dispatched node whose switch stayed silent.
//
// Undos are idempotent, so the closure over-covers safely. A node whose
// FlowMod programs a match other than the flow's own (a two-phase job's
// tagged prepare rule) is invisible to the flow's query: it counts as a
// silent switch's does — in when dispatched — and is never applied.
func (e *Engine) reconcile(ctx context.Context, job *Job, dispatched []bool) reconciled {
	dag := job.plan.dag
	n := len(dag.Nodes)
	r := reconciled{applied: make([]bool, n), agentDone: make([]bool, n)}
	spec := job.rollback
	reports := e.querySwitchState(ctx, job)
	for _, rep := range reports {
		for _, idx := range rep.AgentDone {
			if idx >= 0 && idx < n && dag.Nodes[idx].Switch == rep.Switch {
				r.agentDone[idx] = true
			}
		}
	}
	took := make([]bool, n)
	for i, nd := range dag.Nodes {
		rep := reports[nd.Switch]
		if rep == nil {
			r.silent++
		}
		if rep == nil || job.plan.mods[i].Match != spec.match {
			took[i] = dispatched[i]
			continue
		}
		oldSucc, onOld := spec.in.OldSucc(nd.Switch)
		took[i] = !e.shows(rep, oldSucc, onOld)
		// An update node points the flow at its new-path successor; a
		// cleanup node deletes the rule.
		newSucc, onNew := spec.in.NewSucc(nd.Switch)
		r.applied[i] = e.shows(rep, newSucc, onNew && !job.plan.isCleanup(i))
	}
	r.undo = downClosure(dag, took)
	return r
}

// shows reports whether a switch's answer is the flow's rule forwarding
// to succ — or, when there is no successor (hasSucc false), no rule.
func (e *Engine) shows(rep *planwire.StateReport, succ topo.NodeID, hasSucc bool) bool {
	if !hasSucc {
		return !rep.RulePresent
	}
	return rep.RulePresent && rep.OutPort == e.c.ports.Port(rep.Switch, succ)
}

// querySwitchState sends one StateQuery to each switch of the job's
// plan and collects the answers for up to one RoundTimeout, waiting only
// for queries that went out: a switch the controller cannot reach is
// silent at once. A switch missing from the result stayed silent.
func (e *Engine) querySwitchState(ctx context.Context, job *Job) map[topo.NodeID]*planwire.StateReport {
	ch := make(chan *planwire.StateReport, job.plan.len()) // an answer per switch, at most one per node
	e.c.registerStateReports(job.ID, ch)
	defer e.c.unregisterStateReports(job.ID)

	data := (&planwire.StateQuery{Job: job.ID, NWDst: job.rollback.match.NWDst}).Encode()
	asked := make(map[topo.NodeID]bool, job.plan.len())
	for _, nd := range job.plan.dag.Nodes {
		if !asked[nd.Switch] && e.c.SendVendor(uint64(nd.Switch), data) == nil {
			asked[nd.Switch] = true
		}
	}
	reports := make(map[topo.NodeID]*planwire.StateReport, len(asked))
	timeout := e.c.clock.After(e.c.cfg.RoundTimeout)
	for len(asked) > 0 {
		select {
		case r := <-ch:
			if asked[r.Switch] {
				delete(asked, r.Switch)
				reports[r.Switch] = r
			}
		case <-timeout:
			return reports
		case <-ctx.Done():
			return reports
		}
	}
	return reports
}

// Adoptable decides whether a mid-flight job's recovered state is safe
// to resume from (see the file comment for the argument). The four sets
// are indexed by plan node: applied is what the switches report in
// effect, jconfirmed and jdispatched what the journal recorded, and
// agentDone what the plan agents report completed. Exported so that
// the crash model in internal/experiments asks this decision rather
// than restating it.
func Adoptable(dag *core.Plan, applied, jconfirmed, jdispatched, agentDone []bool) bool {
	closure := downClosure(dag, applied)
	for i := range applied {
		if applied[i] != closure[i] {
			return false // not an order ideal: no plan prefix produces it
		}
		if jconfirmed[i] && !applied[i] {
			return false // journal saw a barrier reply the switch now denies
		}
		if applied[i] && !jdispatched[i] && !agentDone[i] {
			return false // state took effect that nothing on record ordered
		}
	}
	return true
}

func countSet(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// liveRecords builds a live job's compacted journal records: its
// admission plus one dispatched-batch record of its journaled
// dispatched set and its recovered frontier — the applied ideal of an
// adopted job, the undo set of one rolling back — with that frontier as
// its confirmed list.
func liveRecords(lj *journal.LiveJob, dispatched []bool, l *relaunch) []journal.Record {
	recs := []journal.Record{{Kind: journal.KindAdmit, Job: lj.ID, Admit: lj.Admit}}
	front := l.job.preConfirmed
	if l.undo != nil {
		front = l.undo
	}
	var nodes, confirmed []int
	for i := range dispatched {
		c := i < len(front) && front[i]
		if dispatched[i] || c {
			nodes = append(nodes, i)
		}
		if c {
			confirmed = append(confirmed, i)
		}
	}
	if len(nodes) > 0 {
		recs = append(recs, journal.Record{Kind: journal.KindDispatchedBatch, Job: lj.ID, Nodes: nodes, Confirmed: confirmed})
	}
	return recs
}

// downClosure returns the down-closed cover of set: a node that took
// effect had its dependencies take effect first, at their switches,
// whatever those switches say now.
func downClosure(p *core.Plan, set []bool) []bool {
	closed := make([]bool, len(set))
	copy(closed, set)
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !closed[i] {
			continue
		}
		for _, d := range p.Nodes[i].Deps {
			closed[d] = true
		}
	}
	return closed
}
