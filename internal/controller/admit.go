package controller

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// ErrQueueFull reports that the engine's admission limit is reached;
// match with errors.Is.
var ErrQueueFull = errors.New("controller: update queue full")

// execPlan is a job's execution DAG: a core.Plan — the switches, the
// happens-before edges and, through core.Plan's own layering, the shape
// — plus the flow's match, once, and each node's rule change. dag is
// the single copy of the structure: the dispatcher's release
// bookkeeping (core.PlanRun), the journal's admit record, the
// decentralized pushes and the abort path's reverse plan are all taken
// from it, so the plan that was verified, the plan that is journaled and
// the plan that runs are one value. A node's rule is what its switch
// will report once the change took effect (nodeRule.reported), so
// reconcile compares like with like; its FlowMod exists only while it
// is encoded at the wire edge (wireMod). An execPlan is immutable once
// built: walks hold it by pointer, and a job lets go of it — never
// empties it — when it finishes.
type execPlan struct {
	dag   *core.Plan     // Algorithm, Sparse, Nodes (update nodes, then cleanup nodes)
	match openflow.Match // the flow every node's rule is for
	rules []nodeRule     // per node: what it changes before its barrier

	// cleanupFrom is the index of the first stale-rule deletion node
	// (len(dag.Nodes) when the job has none); cleanup nodes are always
	// the DAG's suffix.
	cleanupFrom int

	layers []int // per node: longest dependency chain ending at it
	dagShape
}

// dagShape is what a job keeps of its plan for life: the numbers status
// reports and the layer sizes that place each round in the trace.
type dagShape struct {
	installs int
	edges    int
	depth    int
	width    int
	critical int
	sparse   bool
	perLayer []int // installs per layer; shared, never written
}

func (p *execPlan) len() int             { return len(p.dag.Nodes) }
func (p *execPlan) sw(i int) topo.NodeID { return p.dag.Nodes[i].Switch }
func (p *execPlan) isCleanup(i int) bool { return i >= p.cleanupFrom }

// flowMods counts the FlowMods node i sends: one, or none for a bare
// barrier.
func (p *execPlan) flowMods(i int) int {
	if p.rules[i].kind == ruleBarrier {
		return 0
	}
	return 1
}

// newExecPlan is the engine's only materializer: every job — submitted
// plan, schedule, two-phase, or rebuilt from the journal — becomes
// executable here. p is the update DAG, match the flow and rules[i] the
// rule change of node i. Nodes from cleanupFrom on delete stale rules:
// either they are already part of p (a recovered job's journaled plan,
// replayed with its recorded dependencies) or cleanupAt names their
// switches and they are appended, each depending on every sink of p —
// strictly after the whole update, which for a layered plan is exactly
// one more round. p's nodes are shared, not copied; plans are immutable
// once built.
func newExecPlan(p *core.Plan, match openflow.Match, rules []nodeRule, cleanupFrom int, cleanupAt []topo.NodeID) execPlan {
	nodes := p.Nodes
	if len(cleanupAt) > 0 {
		sinks := planSinks(p.Nodes)
		nodes = make([]core.PlanNode, len(p.Nodes), len(p.Nodes)+len(cleanupAt))
		copy(nodes, p.Nodes)
		for _, v := range cleanupAt {
			nodes = append(nodes, core.PlanNode{Switch: v, Deps: sinks})
		}
	}
	ep := execPlan{
		dag:         &core.Plan{Algorithm: p.Algorithm, Sparse: p.Sparse, Nodes: nodes},
		match:       match,
		rules:       rules,
		cleanupFrom: cleanupFrom,
	}
	ep.layers = ep.dag.NodeLayers()
	ep.dagShape = shapeOf(ep.dag, ep.layers)
	return ep
}

// shapeOf measures a plan from its node layering (p.NodeLayers()),
// derived once by the caller.
func shapeOf(p *core.Plan, layers []int) dagShape {
	sh := dagShape{installs: len(layers), edges: p.NumEdges(), sparse: p.Sparse}
	for _, l := range layers {
		sh.depth = max(sh.depth, l+1)
	}
	sh.perLayer = make([]int, sh.depth)
	for _, l := range layers {
		sh.perLayer[l]++
		sh.width = max(sh.width, sh.perLayer[l])
	}
	sh.critical = max(sh.depth-1, 0)
	return sh
}

// planSinks returns the indices of nodes no other node depends on.
func planSinks(nodes []core.PlanNode) []int {
	hasSucc := make([]bool, len(nodes))
	for _, nd := range nodes {
		for _, d := range nd.Deps {
			hasSucc[d] = true
		}
	}
	var sinks []int
	for i := range nodes {
		if !hasSucc[i] {
			sinks = append(sinks, i)
		}
	}
	return sinks
}

// maxAdmitted bounds the number of unfinished jobs the engine accepts
// (the successor of the seed's 128-slot FIFO queue).
const maxAdmitted = 128

// retainTerminal is how many finished jobs the engine keeps answering
// for (see Engine.retireLocked): the newest ones, each stripped to its
// trace. An older id answers 404, as any finished job does after a
// restart and the compaction that follows it. It is the number of
// finished jobs the journal's fold keeps (8 × maxAdmitted), so a
// restart answers for the jobs the engine did.
const retainTerminal = journal.RetainFinished

// admitSpec builds a job's journal admission record: its identity and
// everything Recover needs to rebuild the execution DAG and its
// rollback spec.
func admitSpec(job *Job) *journal.Admit {
	a := &journal.Admit{
		Algorithm: job.Algorithm,
		Interval:  job.Interval,
		Mode:      uint8(job.Mode),
	}
	spec := job.rollback
	a.Recoverable = true
	a.Old = make([]uint64, len(spec.in.Old))
	for i, n := range spec.in.Old {
		a.Old[i] = uint64(n)
	}
	a.New = make([]uint64, len(spec.in.New))
	for i, n := range spec.in.New {
		a.New[i] = uint64(n)
	}
	a.Waypoint = uint64(spec.in.Waypoint)
	a.NWDst = spec.match.NWDst
	a.Props = uint64(spec.props)
	for i := job.plan.cleanupFrom; i < job.plan.len(); i++ {
		a.Cleanup = append(a.Cleanup, i)
	}
	// The journaled DAG is the job's full execution DAG — update and
	// cleanup nodes alike — so recovery rebuilds exactly the plan that
	// was running, not a re-derivation that could differ.
	dag := *job.plan.dag
	dag.Guarantees = spec.props
	a.Plan = core.EncodePlan(&dag)
	return a
}

// journalAdmits makes admitted jobs durable before anything can be
// dispatched for them: their admit records in one write, committed by
// one fsync.
func (e *Engine) journalAdmits(jobs []*Job) error {
	jl := e.c.cfg.Journal
	if jl == nil {
		return nil
	}
	recs := make([]journal.Record, 0, 16) // on the stack up to 16 jobs
	for _, job := range jobs {
		recs = append(recs, journal.Record{Kind: journal.KindAdmit, Job: job.ID, Admit: admitSpec(job)})
	}
	return jl.AppendAll(recs)
}

// SubmitOptions tunes job construction.
type SubmitOptions struct {
	// Interval pauses before every released non-root install — between
	// rounds, for a layered plan (the REST message's "interval").
	Interval time.Duration

	// Cleanup appends garbage-collection installs after the update:
	// switches on the old path that are off the new path delete the
	// flow's stale rule. Those switches are unreachable for the flow
	// once the update completes, so the extra installs cannot violate
	// any transient property.
	Cleanup bool

	// Mode selects the dispatch path: ModeController (default) routes
	// every happens-before edge through controller-side barriers;
	// ModeDecentralized pushes every switch the plan once and lets the
	// switches coordinate peer-to-peer.
	Mode ExecMode
}

// SubmitPlan enqueues a single-policy update job executing the given
// dependency plan: each switch's FlowMod is issued the moment its
// predecessors' barriers arrive. A layered plan (core.Layered) releases
// round r+1 on round r's last barrier reply, exactly the paper's loop; a
// sparse plan
// lets independent branches proceed past each other's stragglers. The
// flow is identified by match. p must not be modified afterwards.
func (e *Engine) SubmitPlan(in *core.Instance, p *core.Plan, match openflow.Match, opts SubmitOptions) (*Job, error) {
	job, err := e.planJob(in, p, match, opts)
	if err != nil {
		return nil, err
	}
	return e.enqueue(job)
}

// planJob prepares a single-flow plan for admission; the job is
// reversible mid-plan (see rollback.go). Building is pure — nothing is
// admitted.
func (e *Engine) planJob(in *core.Instance, p *core.Plan, match openflow.Match, opts SubmitOptions) (*Job, error) {
	if err := p.Validate(in); err != nil {
		return nil, fmt.Errorf("controller: plan does not fit instance: %w", err)
	}
	return e.flowJob(&rollbackSpec{in: in, match: match, props: p.Guarantees}, p, opts)
}

// flowJob builds the job that runs plan p of spec's flow, with the
// cleanup suffix opts asks for.
func (e *Engine) flowJob(spec *rollbackSpec, p *core.Plan, opts SubmitOptions) (*Job, error) {
	var cleanupAt []topo.NodeID
	if opts.Cleanup {
		cleanupAt = staleSwitches(spec.in)
	}
	ep, err := e.flowExecPlan(spec, p, len(p.Nodes), cleanupAt)
	if err != nil {
		return nil, err
	}
	return newJob(ep, opts, spec), nil
}

// flowExecPlan materializes one flow's plan: every update node points
// the flow at its switch's new-path successor — with the two-phase
// commit's tagged rules when spec is per-packet — and every cleanup node
// (see newExecPlan for cleanupFrom/cleanupAt) deletes the flow's rule.
// Every port is resolved here, so a plan that admits can be sent.
func (e *Engine) flowExecPlan(spec *rollbackSpec, p *core.Plan, cleanupFrom int, cleanupAt []topo.NodeID) (execPlan, error) {
	rules := make([]nodeRule, len(p.Nodes)+len(cleanupAt))
	for i := range rules {
		if i >= cleanupFrom {
			rules[i] = nodeRule{kind: ruleDelete}
			continue
		}
		node := p.Nodes[i].Switch
		succ, ok := spec.in.NewSucc(node)
		if !ok {
			return execPlan{}, fmt.Errorf("switch %d has no new-path successor", node)
		}
		port, err := e.c.port(node, succ)
		if err != nil {
			return execPlan{}, err
		}
		kind := ruleModify
		if spec.perPacket {
			kind = rulePrepare
			if node == spec.in.Src() {
				kind = ruleCommit
			}
		}
		rules[i] = nodeRule{kind: kind, port: port}
	}
	return newExecPlan(p, spec.match, rules, cleanupFrom, cleanupAt), nil
}

// staleSwitches lists the garbage-collection targets of an update: the
// old-path switches that are off the new path, in old-path order.
func staleSwitches(in *core.Instance) []topo.NodeID {
	var out []topo.NodeID
	for _, node := range in.Old {
		if !in.OnNew(node) {
			out = append(out, node)
		}
	}
	return out
}

// newJob wraps an execution DAG as a job that is built but not yet
// admitted (no id). The job takes its algorithm name from the plan and
// carries rollback, what its abort path reverses it by.
func newJob(plan execPlan, opts SubmitOptions, rollback *rollbackSpec) *Job {
	job := &Job{
		Algorithm: plan.dag.Algorithm,
		Interval:  opts.Interval,
		Mode:      opts.Mode,
		shape:     plan.dagShape,
		plan:      &plan,
		rollback:  rollback,
		done:      make(chan struct{}),
	}
	job.footprint()
	return job
}

// enqueue admits a single job (see enqueueAll).
func (e *Engine) enqueue(job *Job) (*Job, error) {
	if err := e.enqueueAll([]*Job{job}); err != nil {
		return nil, err
	}
	return job, nil
}

// enqueueAll admits several built jobs atomically: either the whole
// group fits under the admission limit and every job is admitted in
// order (consecutive ids), or nothing is and ErrQueueFull is returned.
// Every submission path ends here. A job no earlier unfinished job
// conflicts with starts its walk as soon as its admission is durable;
// maxAdmitted is the only bound on how many run at once.
func (e *Engine) enqueueAll(jobs []*Job) error {
	e.mu.Lock()
	if len(e.active)+len(jobs) > maxAdmitted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %d active + %d submitted > %d",
			ErrQueueFull, len(e.active), len(jobs), maxAdmitted)
	}
	for _, job := range jobs {
		e.nextID++
		job.ID = e.nextID
		e.admitLocked(job, e.execute)
	}
	e.mu.Unlock()
	// Admission is journaled (and synced) before the blocker that stands
	// for it is released: a job either never reached the journal (and
	// sent nothing), or is durably recoverable. When the batch's admit
	// append fails, its jobs end here, on their own — later dispatch
	// appends must not leave deltas of a job the journal never admitted
	// — and the release below passes them by.
	if err := e.journalAdmits(jobs); err != nil {
		e.failQueued(fmt.Errorf("%w: admit: %v", errJournalWriteAhead, err), jobs...)
	}
	e.release(jobs)
	return nil
}

// admitLocked registers a job as active, to do run once launched, and
// counts what blocks its launch: every earlier unfinished job it
// conflicts with — earlier members of the same batch included — each of
// which notes it as a successor to release when it finishes; its
// admission, which enqueueAll releases once it is durable and Recover
// once it decided a journaled job; and the engine not having started,
// which run releases. Conflicting jobs therefore launch in exactly
// their admission order. Caller holds e.mu.
func (e *Engine) admitLocked(job *Job, run func(context.Context, *Job) (*FailureReport, error)) {
	e.jobs[job.ID] = job
	job.run = run
	job.blockers = 1
	for _, prev := range e.active {
		if prev.conflictsWith(job) {
			prev.succs = append(prev.succs, job)
			job.blockers++
		}
	}
	if e.ctx == nil {
		job.blockers++
	}
	e.active = append(e.active, job)
	e.queued++
}
