package controller

// This file is the engine's crash-restart recovery path. The journal
// gives the restarted controller an exact, write-ahead record of every
// job's admission, dispatched/confirmed frontier, and terminal phase —
// but the network moved on without it: FlowMods that were in flight at
// the crash may or may not have landed. Per-switch local state is
// sufficient to close that gap (the insight of the local-verification
// line of work): each switch reports whether the flow's rule is
// installed and where it forwards, plus which plan nodes its plan
// agent completed, and from those local answers Recover reconstructs
// the job's global order ideal.
//
// The reconciliation decision per mid-flight job:
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
//     evidence contradicts the journal. The job falls into the
//     existing abort path with the down-closure of (journaled ∪
//     applied) as the dispatched prefix — the reverse plan is verified
//     against the same base∖I safety argument as any mid-plan abort,
//     so recovery is verified, never assumed.

import (
	"context"
	"fmt"
	"net"

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
	// Failed counts non-recoverable jobs (joint, two-phase) that were
	// non-terminal at the crash and could only be marked failed.
	Failed int
}

// Recovered returns the number of non-terminal jobs the restart
// brought back to a live engine (every one reaches a terminal phase).
func (s RecoveryStats) Recovered() int { return s.Requeued + s.Adopted + s.RolledBack }

// recoveredJob is one journaled job folded from the replayed records.
type recoveredJob struct {
	id         int
	admit      *journal.Admit
	dispatched map[int]bool
	confirmed  map[int]bool
	terminal   bool
	done       bool
	errMsg     string
}

// relaunch is one live recovered job ready to run: either via the
// normal dispatcher (requeued/adopted) or via the rollback path.
type relaunch struct {
	job *Job

	// rollback, when set, routes the job to the abort path instead of
	// the dispatcher, with the recovered dispatched/applied sets.
	rollback   bool
	dispatched []bool
	applied    []bool
	cause      error
}

// Recover replays the configured journal and brings every journaled
// job back: terminal jobs become queryable stubs, untouched jobs are
// re-admitted, and mid-flight jobs are reconciled against live switch
// state — adopted and resumed when journal and switches agree, rolled
// back through the verified reverse-plan path when they don't. Call it
// after Start (the dispatcher must be running) and after the plan's
// switches have reconnected; switches that stay unreachable push their
// jobs onto the rollback path, which reports them stuck if they still
// cannot be reached. ctx bounds the reconciliation only: recovered jobs
// run on the engine's context and finish asynchronously; Wait on them
// (or watch /v1/updates) for outcomes. The journal is compacted
// to the folded live state before any recovered job re-executes.
func (e *Engine) Recover(ctx context.Context) (RecoveryStats, error) {
	var stats RecoveryStats
	jl := e.c.cfg.Journal
	if jl == nil {
		return stats, nil
	}
	recs := jl.Replayed()
	stats.Replayed = len(recs)

	// Fold the record stream into per-job state.
	byID := make(map[int]*recoveredJob)
	var order []*recoveredJob
	maxID := 0
	for i := range recs {
		rec := &recs[i]
		if rec.Job > maxID {
			maxID = rec.Job
		}
		rj := byID[rec.Job]
		if rj == nil {
			rj = &recoveredJob{id: rec.Job, dispatched: make(map[int]bool), confirmed: make(map[int]bool)}
			byID[rec.Job] = rj
			order = append(order, rj)
		}
		switch rec.Kind {
		case journal.KindAdmit:
			rj.admit = rec.Admit
		case journal.KindDispatched:
			rj.dispatched[rec.Node] = true
		case journal.KindDispatchedBatch:
			for _, n := range rec.Nodes {
				rj.dispatched[n] = true
			}
		case journal.KindConfirmed:
			rj.confirmed[rec.Node] = true
		case journal.KindTerminal:
			rj.terminal = true
			rj.done = rec.Done
			rj.errMsg = rec.Error
		}
	}

	e.mu.Lock()
	if e.nextID < maxID {
		e.nextID = maxID
	}
	e.mu.Unlock()

	var launches []*relaunch
	var compacted []journal.Record
	for _, rj := range order {
		if rj.admit == nil {
			continue // deltas for a job whose admit record was lost: nothing to rebuild
		}
		if rj.terminal {
			stats.Terminal++
			e.addStub(rj, nil)
			continue
		}
		if !rj.admit.Recoverable {
			// Joint and two-phase jobs journal no recovery spec; caught
			// non-terminal they can only be reported failed.
			stats.Failed++
			e.addStub(rj, &FailureReport{
				Phase:           PhaseAborted,
				TriggeringFault: "controller restart: job shape is not recoverable",
			})
			continue
		}
		job, err := e.rebuildJob(rj)
		if err != nil {
			stats.Failed++
			e.c.logger.Warn("recovery: rebuilding job failed", "job", rj.id, "err", err)
			e.addStub(rj, &FailureReport{
				Phase:           PhaseAborted,
				TriggeringFault: fmt.Sprintf("controller restart: rebuild failed: %v", err),
			})
			continue
		}
		l := &relaunch{job: job}
		if len(rj.dispatched) == 0 {
			// Write-ahead discipline: no dispatched record means no
			// FlowMod left for this job. Re-admit it untouched.
			stats.Requeued++
		} else {
			e.reconcile(ctx, rj, l)
			if l.rollback {
				stats.RolledBack++
			} else {
				stats.Adopted++
			}
		}
		launches = append(launches, l)
		compacted = append(compacted, liveRecords(rj, l)...)
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
		if l.rollback {
			run = func(ctx context.Context, job *Job) (*FailureReport, error) {
				return e.abort(ctx, job, l.cause, l.dispatched, l.applied)
			}
		}
		e.admitLocked(l.job, run)
		live[i] = l.job
	}
	e.recovery = &stats
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
// plan, no trace — so the API keeps answering for it across the restart:
// among the retained finished jobs, so of a long journal the newest
// retainTerminal stay. A non-nil report marks the job failed-by-restart
// regardless of its journaled outcome.
func (e *Engine) addStub(rj *recoveredJob, report *FailureReport) {
	job := &Job{
		ID:        rj.id,
		Algorithm: rj.admit.Algorithm,
		Interval:  rj.admit.Interval,
		Mode:      ExecMode(rj.admit.Mode),
		Recovered: true,
		done:      make(chan struct{}),
	}
	switch {
	case report != nil:
		job.state = JobFailed
		job.err = fmt.Errorf("controller restart: %s", report.TriggeringFault)
		job.failure = report
	case rj.done:
		job.state = JobDone
	default:
		job.state = JobFailed
		job.err = fmt.Errorf("%s", rj.errMsg)
	}
	close(job.done)
	e.mu.Lock()
	if _, exists := e.jobs[job.ID]; !exists {
		e.jobs[job.ID] = job
		e.retireLocked(job)
	}
	e.mu.Unlock()
}

// rebuildJob reconstructs a recoverable job from its admission record:
// the update instance, the flow match, the journaled execution DAG
// (update and cleanup nodes alike, with their original dependencies),
// and the rollback spec.
func (e *Engine) rebuildJob(rj *recoveredJob) (*Job, error) {
	a := rj.admit
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
	ep, err := e.flowExecPlan(in, dag, match, cleanupFrom, nil)
	if err != nil {
		return nil, err
	}
	job := newJob(ep, SubmitOptions{Interval: a.Interval, Mode: ExecMode(a.Mode)},
		&rollbackSpec{in: in, match: match, props: core.Property(a.Props)})
	job.ID = rj.id
	job.Recovered = true
	return job, nil
}

// nwDstIP rebuilds the flow's IPv4 address from its journaled word.
func nwDstIP(v uint32) net.IP {
	return net.IPv4(byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// reconcile decides a mid-flight job's fate by querying its switches
// and fills the relaunch accordingly: adopt (preConfirmed frontier)
// or rollback (dispatched prefix + applied set for the abort path).
func (e *Engine) reconcile(ctx context.Context, rj *recoveredJob, l *relaunch) {
	job := l.job
	n := job.plan.len()
	jdispatched := make([]bool, n)
	jconfirmed := make([]bool, n)
	for i := range jdispatched {
		jdispatched[i] = rj.dispatched[i]
		jconfirmed[i] = rj.confirmed[i]
	}

	reports, err := e.querySwitchState(ctx, job)
	if err != nil {
		e.c.logger.Warn("recovery: state query failed", "job", job.ID, "err", err)
	}
	applied, agentDone, allReported := e.appliedSet(job, reports)

	if allReported && Adoptable(job.plan.dag, applied, jconfirmed, jdispatched, agentDone) {
		job.Adopted = true
		job.preConfirmed = applied
		e.c.logger.Info("recovery: adopting job", "job", job.ID,
			"applied", countSet(applied), "installs", n)
		return
	}

	// The rollback prefix over-covers on purpose: everything the
	// journal dispatched plus everything the switches show applied,
	// down-closed. Undo mods are idempotent, so over-covering is safe;
	// under-covering would leave unrecorded state behind.
	union := make([]bool, n)
	for i := range union {
		union[i] = jdispatched[i] || applied[i] || agentDone[i]
	}
	l.rollback = true
	l.dispatched = downClosure(job.plan.dag, union)
	l.applied = applied
	l.cause = fmt.Errorf("controller restart: mid-flight state not adoptable (%d/%d switches reported, %d applied)",
		len(reports), len(planSwitches(job)), countSet(applied))
	e.c.logger.Info("recovery: rolling back job", "job", job.ID,
		"reported", len(reports), "applied", countSet(applied))
}

// planSwitches returns the distinct switches of a job's exec DAG.
func planSwitches(job *Job) []topo.NodeID {
	seen := make(map[topo.NodeID]bool, job.plan.len())
	var out []topo.NodeID
	for _, nd := range job.plan.dag.Nodes {
		n := nd.Switch
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// stateQueryAttempts bounds the query rounds per job; each round waits
// up to the controller's RoundTimeout on its clock.
const stateQueryAttempts = 3

// querySwitchState asks every switch of the job's plan for its local
// view of the flow, retrying switches that have not answered (they may
// still be reconnecting). Missing entries in the returned map mark
// switches that never answered.
func (e *Engine) querySwitchState(ctx context.Context, job *Job) (map[topo.NodeID]*planwire.StateReport, error) {
	switches := planSwitches(job)
	ch := make(chan *planwire.StateReport, len(switches))
	e.c.registerStateReports(job.ID, ch)
	defer e.c.unregisterStateReports(job.ID)

	want := make(map[topo.NodeID]bool, len(switches))
	for _, s := range switches {
		want[s] = true
	}
	reports := make(map[topo.NodeID]*planwire.StateReport, len(switches))
	data := (&planwire.StateQuery{Job: job.ID, NWDst: job.rollback.match.NWDst}).Encode()
	for attempt := 0; attempt < stateQueryAttempts && len(reports) < len(switches); attempt++ {
		for _, s := range switches {
			if reports[s] != nil {
				continue
			}
			if err := e.c.SendVendor(uint64(s), data); err != nil {
				// Not connected right now; it may reconnect before the
				// deadline or a later attempt.
				continue
			}
		}
		timeout := e.c.clock.After(e.c.cfg.RoundTimeout)
	collect:
		for len(reports) < len(switches) {
			select {
			case r := <-ch:
				if want[r.Switch] && reports[r.Switch] == nil {
					reports[r.Switch] = r
				}
			case <-timeout:
				break collect
			case <-ctx.Done():
				return reports, ctx.Err()
			}
		}
	}
	return reports, nil
}

// appliedSet derives, from the switches' local answers, which plan
// nodes have taken effect: an update node is applied iff the flow's
// rule is present and forwards to the node's new-path successor; a
// cleanup node is applied iff the rule is gone. agentDone marks nodes
// the owning switch's plan agent reported completed (decentralized
// runs). allReported is false when any plan switch never answered.
func (e *Engine) appliedSet(job *Job, reports map[topo.NodeID]*planwire.StateReport) (applied, agentDone []bool, allReported bool) {
	in := job.rollback.in
	n := job.plan.len()
	applied = make([]bool, n)
	agentDone = make([]bool, n)
	allReported = true
	for i, nd := range job.plan.dag.Nodes {
		r, ok := reports[nd.Switch]
		if !ok {
			allReported = false
			continue
		}
		for _, idx := range r.AgentDone {
			if idx >= 0 && idx < n && job.plan.sw(idx) == r.Switch {
				agentDone[idx] = true
			}
		}
		if job.plan.isCleanup(i) {
			applied[i] = !r.RulePresent
			continue
		}
		succ, ok := in.NewSucc(nd.Switch)
		if !ok {
			continue
		}
		applied[i] = r.RulePresent && r.OutPort == e.c.ports.Port(nd.Switch, succ)
	}
	return applied, agentDone, allReported
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
// admission plus the dispatched/confirmed deltas of its recovered
// frontier.
func liveRecords(rj *recoveredJob, l *relaunch) []journal.Record {
	recs := []journal.Record{{Kind: journal.KindAdmit, Job: rj.id, Admit: rj.admit}}
	n := l.job.plan.len()
	var batch []int // dispatched frontier, ascending: one grouped record
	for i := 0; i < n; i++ {
		confirmed := i < len(l.job.preConfirmed) && l.job.preConfirmed[i]
		if l.rollback {
			confirmed = i < len(l.applied) && l.applied[i]
		}
		dispatched := rj.dispatched[i] || confirmed ||
			(l.rollback && i < len(l.dispatched) && l.dispatched[i])
		if dispatched {
			batch = append(batch, i)
		}
		if confirmed {
			recs = append(recs, journal.Record{Kind: journal.KindConfirmed, Job: rj.id, Node: i})
		}
	}
	if len(batch) > 0 {
		recs = append(recs, journal.Record{Kind: journal.KindDispatchedBatch, Job: rj.id, Nodes: batch})
	}
	return recs
}
