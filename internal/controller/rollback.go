package controller

import (
	"context"
	"fmt"
	"sort"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// This file is the engine's abort-and-recover path. When a job fails
// mid-plan — a barrier timeout, a dead switch, a stalled decentralized
// run — reconcile (recover.go) asks the plan's switches what took
// effect, and the answer is an order ideal of the execution DAG. The
// engine reverses exactly that ideal with core.Plan.Reverse,
// re-verifies the reverse plan's order ideals with verify.Plan like
// any forward plan, and only when that check passes executes the
// rollback: every transient state on the way back down is then a state
// the forward plan could already reach on its way up, so a
// verified-safe update stays safe through its own abort. When the
// reverse plan fails (one-shot plans whose installed ideal admits
// unsafe sub-ideals) or is inexact (a stage the search could not
// decide within its budget), the job reports a stuck state with the
// precise per-node unmet dependencies and leaves the rules in place —
// a wrong rollback is worse than a frozen, diagnosable one.

// Failure-report phases, in escalation order.
const (
	// PhaseAborted: the job failed mid-plan and no rollback was
	// attempted: a controller restart could not rebuild it from its
	// journaled admit record.
	PhaseAborted = "aborted"
	// PhaseRolledBack: the reverse plan verified safe and every
	// installed node was undone; the network is back on the old
	// configuration.
	PhaseRolledBack = "rolled-back"
	// PhaseRollbackFailed: the reverse plan verified safe but its
	// execution failed partway; Installed minus RolledBack is still in
	// effect.
	PhaseRollbackFailed = "rollback-failed"
	// PhaseStuck: the reverse plan did not verify safe, or was
	// inexact; nothing was undone and Stuck lists each installed node's
	// unmet rollback dependencies.
	PhaseStuck = "stuck"
)

// FailureReport is the structured outcome of an aborted job, surfaced
// on GET /v1/updates/{id} and through the client SDK.
type FailureReport struct {
	// Phase is one of the Phase* constants.
	Phase string
	// TriggeringFault describes the failure that aborted the plan.
	TriggeringFault string
	// Installed lists the switches whose installs the switches
	// themselves showed in effect when asked after the abort (with every
	// dependency of those, and the dispatched installs of switches that
	// did not answer): exactly the set the rollback reverses.
	Installed []topo.NodeID
	// RolledBack lists the switches whose installs were undone, a
	// subset of Installed.
	RolledBack []topo.NodeID
	// RollbackVerified reports whether the reverse plan was decided
	// safe (true even when its execution later failed): by an exact
	// verify verdict, or — for a two-phase job — by construction.
	RollbackVerified bool
	// Stuck, for PhaseStuck/PhaseRollbackFailed, lists installed nodes
	// left in place with the dependencies blocking their uninstall.
	Stuck []StuckNode
}

// StuckNode is one installed-but-not-rolled-back switch and the
// switches whose uninstall must come first (its installed forward-plan
// successors — the reverse plan's unmet dependencies).
type StuckNode struct {
	Switch    topo.NodeID
	WaitingOn []topo.NodeID
}

// rollbackSpec carries what the abort path needs to build, verify and
// execute a job's reverse plan; every job has one. Immutable.
type rollbackSpec struct {
	in    *core.Instance
	match openflow.Match
	props core.Property // the forward plan's guarantees (0 = none promised)

	// perPacket marks a two-phase job: its update nodes are the tagged
	// commit's (rulePrepare, ruleCommit), and its reverse is per-packet
	// consistent by construction (see verifyRollback).
	perPacket bool
}

// rollbackProps resolves the property set a rollback must uphold: the
// forward guarantees, or — for one-shot plans that promise nothing —
// the instance's natural property set, so "verified safe" keeps
// meaning something and unordered prefixes are genuinely refused.
func (s *rollbackSpec) rollbackProps() core.Property {
	if s.props != 0 {
		return s.props
	}
	return s.in.NaturalProps()
}

// abort handles a mid-plan failure: report undo — the set reconcile
// found in effect, an order ideal of the plan — as installed, verify
// its reverse plan, and either execute the rollback or report the job
// stuck. It returns the job's failure report and terminal error for
// Engine.finish.
func (e *Engine) abort(ctx context.Context, job *Job, cause error, undo []bool) (*FailureReport, error) {
	report := &FailureReport{
		Phase:           PhaseAborted,
		TriggeringFault: cause.Error(),
		Installed:       planSetSwitches(job, undo),
	}
	spec := job.rollback
	if err := e.verifyRollback(job, spec, undo); err != nil {
		report.Phase = PhaseStuck
		report.Stuck = stuckNodes(job, undo, nil)
		return report, fmt.Errorf("%w; rollback refused: %v", cause, err)
	}
	report.RollbackVerified = true
	rolledBack, undone, rbErr := e.runRollback(ctx, job, spec, undo)
	report.RolledBack = rolledBack
	if rbErr != nil {
		report.Phase = PhaseRollbackFailed
		report.Stuck = stuckNodes(job, undo, undone)
		return report, fmt.Errorf("%w; rollback failed: %v", cause, rbErr)
	}
	report.Phase = PhaseRolledBack
	return report, cause
}

// verifyRollback gates the reverse plan of the undo ideal's update
// nodes with RollbackGate. Cleanup nodes are excluded from the
// verified plan: they sit past every update node, so a cleanup node in
// the ideal implies the network is fully on the new path, where
// re-adding a stale old-path rule at an unreachable switch is
// unobservable — runRollback undoes them first, restoring exactly the
// state space this verification covers.
//
// A per-packet spec's reverse passes without a model check: untagged
// packets observe only the ingress rule, and the reverse undoes that
// rule first — the tagged rules' deletes all wait for it — so every
// packet rides the old policy or the new one in full.
func (e *Engine) verifyRollback(job *Job, spec *rollbackSpec, undo []bool) error {
	if spec.perPacket {
		return nil
	}
	k := job.plan.cleanupFrom
	fwd := &core.Plan{
		Algorithm:  job.Algorithm,
		Guarantees: spec.rollbackProps(),
		Sparse:     job.plan.dag.Sparse,
		Nodes:      job.plan.dag.Nodes[:k],
	}
	rev, _, err := fwd.Reverse(undo[:k])
	if err != nil {
		return err
	}
	return RollbackGate(spec.in, rev, fwd.Guarantees)
}

// RollbackGate passes a reverse plan only on a decided, clean verdict
// of verify.Plan under props: an inexact stage refuses it, since a wrong
// rollback is worse than a frozen one. Exported so that the crash model
// in internal/experiments gates its rollbacks with it.
func RollbackGate(in *core.Instance, rev *core.Plan, props core.Property) error {
	rep := verify.Plan(in, rev, props, verify.Options{})
	switch {
	case rep.StructureErr != nil:
		return fmt.Errorf("reverse plan invalid: %w", rep.StructureErr)
	case rep.FirstViolation() != nil:
		return fmt.Errorf("reverse plan admits a transient %v violation", rep.FirstViolation().Violated)
	case !rep.FinalStateOK:
		return fmt.Errorf("reverse plan does not restore the old configuration")
	case !rep.Exact():
		return fmt.Errorf("reverse plan inexact: a stage lies past the verify budget")
	}
	return nil
}

// runRollback undoes an installed ideal: the full reverse DAG (cleanup
// undos first — they are the reverse plan's roots) with each node's
// undo rule is one more execution DAG, walked unjournaled on the
// same dispatch path as the forward pass. Undo rules are idempotent,
// so nodes in the ideal that never took effect are harmless to "undo".
// Returns the switches undone in confirmation order and the per-node
// undone set.
func (e *Engine) runRollback(ctx context.Context, job *Job, spec *rollbackSpec, installed []bool) (rolledBack []topo.NodeID, undone []bool, err error) {
	rev, fwd, err := job.plan.dag.Reverse(installed)
	if err != nil {
		return nil, nil, err
	}
	n := len(rev.Nodes)
	undone = make([]bool, len(installed))
	if n == 0 {
		return nil, undone, nil
	}
	rules := make([]nodeRule, n)
	for j, fi := range fwd {
		if rules[j], err = e.undoRule(spec, job.plan.sw(fi), job.plan.rules[fi]); err != nil {
			return nil, undone, err
		}
	}
	plan := newExecPlan(rev, job.plan.match, rules, n, nil)
	run := core.NewPlanRun(rev)
	ready := run.Reset(make([]int, 0, n))
	_, _, err = e.walk(ctx, walkSpec{
		plan: &plan,
		confirm: func(j int, _ topo.NodeID, a nodeAck) []int {
			node := plan.sw(j)
			job.tally(node, MessageStats{Ctrl: plan.flowMods(j) + 2})
			rolledBack = append(rolledBack, node)
			undone[fwd[j]] = true
			ready = run.Complete(j, ready[:0])
			return ready
		},
	})
	return rolledBack, undone, err
}

// undoRule is the rule that reverses forward rule fwd at node's switch,
// derived from fwd and the old path: a two-phase job's tagged prepare
// rule is deleted; otherwise old-path switches MODIFY the flow back
// toward their old-path successor (OF 1.0 MODIFY also re-inserts a rule
// a cleanup node deleted) and new-path-only switches delete the rule the
// update inserted. Each is idempotent on a switch the forward plan never
// reached.
func (e *Engine) undoRule(spec *rollbackSpec, node topo.NodeID, fwd nodeRule) (nodeRule, error) {
	if fwd.kind == rulePrepare {
		return nodeRule{kind: ruleDeleteTagged}, nil
	}
	if succ, ok := spec.in.OldSucc(node); ok {
		port, err := e.c.port(node, succ)
		return nodeRule{kind: ruleModify, port: port}, err
	}
	return nodeRule{kind: ruleDelete}, nil
}

// stuckNodes lists the installed nodes left in place (installed minus
// undone; undone may be nil) with the installed successors whose
// uninstall must come first. Capped at 8 entries, like stallError.
func stuckNodes(job *Job, installed, undone []bool) []StuckNode {
	dag := job.plan.dag
	left := func(i int) bool { return installed[i] && (undone == nil || !undone[i]) }
	var out []StuckNode
	for i := range dag.Nodes {
		if !left(i) {
			continue
		}
		if len(out) >= 8 {
			break
		}
		var waits []topo.NodeID
		for s := i + 1; s < len(dag.Nodes); s++ {
			if !left(s) {
				continue
			}
			for _, d := range dag.Nodes[s].Deps {
				if d == i {
					waits = append(waits, dag.Nodes[s].Switch)
					break
				}
			}
		}
		out = append(out, StuckNode{Switch: dag.Nodes[i].Switch, WaitingOn: waits})
	}
	return out
}

// planSetSwitches maps a per-node bool set to its sorted switch list.
func planSetSwitches(job *Job, set []bool) []topo.NodeID {
	var out []topo.NodeID
	for i, ok := range set {
		if ok {
			out = append(out, job.plan.sw(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
