package controller

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/metrics"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// ErrQueueFull reports that the engine's admission limit is reached;
// match with errors.Is.
var ErrQueueFull = errors.New("controller: update queue full")

// JobState is the lifecycle of an update job.
type JobState int

const (
	// JobQueued: admitted, waiting on conflicting predecessors or a
	// worker slot.
	JobQueued JobState = iota
	// JobRunning: installs in flight.
	JobRunning
	// JobDone: every install confirmed by its barrier.
	JobDone
	// JobFailed: an install failed (send error or barrier timeout).
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// ParseJobState maps a state name back to its JobState.
func ParseJobState(s string) (JobState, bool) {
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed} {
		if st.String() == s {
			return st, true
		}
	}
	return 0, false
}

// RoundTiming records one executed round: which switches were touched
// and how long the round took from first FlowMod sent to last barrier
// reply received — the paper's "update time of flow tables" metric,
// measured per round.
type RoundTiming struct {
	Round    int
	Switches []topo.NodeID
	FlowMods int
	Cleanup  bool // true for the stale-rule garbage-collection round
	Started  time.Time
	Finished time.Time
}

// Duration returns the round's wall-clock time.
func (rt RoundTiming) Duration() time.Duration { return rt.Finished.Sub(rt.Started) }

// InstallTiming records one confirmed install of the ack-driven
// dispatcher: which switch was updated, the dependency edge that
// released it (the predecessor whose barrier reply arrived last —
// zero for installs dispatched immediately), and the span from first
// FlowMod sent to barrier reply received. The sequence of
// InstallTimings is the job's execution trace at per-node-barrier
// granularity; RoundTimings aggregate it per layer for the round view.
type InstallTiming struct {
	Node       topo.NodeID
	Layer      int
	ReleasedBy topo.NodeID // 0 when the install had no dependencies
	FlowMods   int
	Cleanup    bool
	Started    time.Time
	Finished   time.Time
}

// Duration returns the install's wall-clock time.
func (it InstallTiming) Duration() time.Duration { return it.Finished.Sub(it.Started) }

// JobEvent is one progress notification delivered to Subscribe
// channels: a confirmed install (Install non-nil), a completed layer
// (Round non-nil, State JobRunning), or the terminal state (both nil,
// State JobDone/JobFailed).
type JobEvent struct {
	Round   *RoundTiming
	Install *InstallTiming
	State   JobState
	Err     error // set on terminal failure
}

// execPlan is a job's execution DAG: a core.Plan — the switches, the
// happens-before edges and, through core.Plan's own layering, the shape
// — plus the FlowMods each node sends. dag is the single copy of the
// structure: the dispatcher's release bookkeeping (core.PlanRun), the
// journal's admit record, the decentralized partitions and the abort
// path's reverse plan are all taken from it, so the plan that was
// verified, the plan that is journaled and the plan that runs are one
// value.
type execPlan struct {
	dag  *core.Plan            // Algorithm, Sparse, Nodes (update nodes, then cleanup nodes)
	mods [][]*openflow.FlowMod // per node: what it sends before its barrier

	// cleanupFrom is the index of the first stale-rule deletion node
	// (len(dag.Nodes) when the job has none); cleanup nodes are always
	// the DAG's suffix.
	cleanupFrom int

	layers   []int // per node: longest dependency chain ending at it
	depth    int
	width    int
	critical int
}

func (p *execPlan) len() int             { return len(p.dag.Nodes) }
func (p *execPlan) sw(i int) topo.NodeID { return p.dag.Nodes[i].Switch }
func (p *execPlan) isCleanup(i int) bool { return i >= p.cleanupFrom }

// newExecPlan is the engine's only materializer: every job — submitted
// plan, schedule, two-phase, joint, or rebuilt from the journal —
// becomes executable here. p is the update DAG and mods[i] the FlowMods
// of node i. Nodes from cleanupFrom on delete stale rules: either they
// are already part of p (a recovered job's journaled plan, replayed
// with its recorded dependencies) or cleanupAt names their switches and
// they are appended, each depending on every sink of p — strictly
// after the whole update, which for a layered plan is exactly one more
// round. p's nodes are shared, not copied; plans are immutable once
// built.
func newExecPlan(p *core.Plan, mods [][]*openflow.FlowMod, cleanupFrom int, cleanupAt []topo.NodeID) execPlan {
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
		mods:        mods,
		cleanupFrom: cleanupFrom,
	}
	ep.layers = ep.dag.NodeLayers()
	ep.depth = ep.dag.Depth()
	ep.width = ep.dag.Width()
	ep.critical = ep.dag.CriticalPath()
	return ep
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

// Job is one queued update: the REST message object of the paper,
// carrying the execution DAG and the per-switch OpenFlow messages of
// every node.
type Job struct {
	ID        int
	Algorithm string
	Interval  time.Duration // pause before a released non-root install (REST "interval")
	Mode      ExecMode      // dispatch path (controller-driven or decentralized)

	plan execPlan

	// Conflict footprint, immutable after construction: the switches
	// this job touches and the flow matches it programs. Two jobs
	// conflict when either set intersects; the dispatcher serializes
	// conflicting jobs in submission order and runs disjoint jobs
	// concurrently.
	nodes   map[topo.NodeID]struct{}
	matches map[openflow.Match]struct{}

	// rollback, immutable after construction, carries what the abort
	// path needs to build and verify a reverse plan. Nil for jobs the
	// engine cannot roll back (joint updates, two-phase), which fail
	// plain on mid-plan errors.
	rollback *rollbackSpec

	// Recovered marks a job reconstructed from the journal after a
	// controller restart; Adopted additionally marks a mid-flight job
	// whose journal and switch state agreed, so execution resumed from
	// the recovered frontier instead of rolling back. Both are set
	// before the job launches and immutable after.
	Recovered bool
	Adopted   bool

	// preConfirmed, set only on adopted jobs, marks the plan nodes the
	// reconciliation proved already applied: execute confirms them
	// synthetically and resumes dispatch from the frontier they
	// release.
	preConfirmed []bool

	mu       sync.Mutex
	state    JobState
	err      error
	failure  *FailureReport
	timings  []RoundTiming
	installs []InstallTiming
	msgs     map[topo.NodeID]MessageStats
	events   []JobEvent // publish log, replayed to late subscribers
	started  time.Time
	finished time.Time
	done     chan struct{}
	subs     []chan JobEvent
}

// NumRounds returns the number of layers the job's execution DAG has
// (including a cleanup layer, when requested) — for a round schedule,
// exactly its round count.
func (j *Job) NumRounds() int { return j.plan.depth }

// NumInstalls returns the number of per-switch installs of the job's
// execution DAG.
func (j *Job) NumInstalls() int { return j.plan.len() }

// NumEdges returns the number of happens-before edges of the job's
// execution DAG.
func (j *Job) NumEdges() int { return j.plan.dag.NumEdges() }

// PlanShape reports the execution DAG's shape: depth (layers), width
// (peak install parallelism), critical path (sequential barrier waits
// on the longest chain), and whether the DAG is sparse (ack-driven
// past layer barriers) rather than layered.
func (j *Job) PlanShape() (depth, width, critical int, sparse bool) {
	return j.plan.depth, j.plan.width, j.plan.critical, j.plan.dag.Sparse
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure cause for JobFailed jobs.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Failure returns the structured failure report of a JobFailed job
// that aborted mid-plan (nil otherwise): the recovery phase reached,
// the triggering fault, and the installed/rolled-back node sets.
func (j *Job) Failure() *FailureReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failure == nil {
		return nil
	}
	f := *j.failure
	return &f
}

// Timings returns the per-round (per-layer) timings recorded so far.
func (j *Job) Timings() []RoundTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RoundTiming, len(j.timings))
	copy(out, j.timings)
	return out
}

// Installs returns the per-switch install trace recorded so far, in
// barrier-confirmation order: each entry names the dependency edge
// that released the install.
func (j *Job) Installs() []InstallTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]InstallTiming, len(j.installs))
	copy(out, j.installs)
	return out
}

// TotalDuration returns the job's wall-clock time from first round
// start to last barrier (zero while unfinished).
func (j *Job) TotalDuration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// Wait blocks until the job reaches JobDone or JobFailed (or ctx ends).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Subscribe returns a channel of progress events: installs and rounds
// already executed are replayed first (in publish order), then live
// events stream as barriers arrive, and the channel ends with a
// terminal JobDone/JobFailed event before closing. The channel is
// buffered for the job's full event count, so a slow reader never
// blocks the engine.
func (j *Job) Subscribe() <-chan JobEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan JobEvent, j.plan.len()+j.plan.depth+2)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.state == JobDone || j.state == JobFailed {
		ch <- JobEvent{State: j.state, Err: j.err}
		close(ch)
		return ch
	}
	j.subs = append(j.subs, ch)
	return ch
}

// footprint fills the job's conflict sets from its execution DAG.
func (j *Job) footprint() {
	j.nodes = make(map[topo.NodeID]struct{})
	j.matches = make(map[openflow.Match]struct{})
	for i, nd := range j.plan.dag.Nodes {
		j.nodes[nd.Switch] = struct{}{}
		for _, fm := range j.plan.mods[i] {
			j.matches[fm.Match] = struct{}{}
		}
	}
}

// conflictsWith reports whether the two jobs may not execute
// concurrently: they touch a common switch or program a common flow.
func (j *Job) conflictsWith(other *Job) bool {
	a, b := j.nodes, other.nodes
	if len(b) < len(a) {
		a, b = b, a
	}
	for n := range a {
		if _, ok := b[n]; ok {
			return true
		}
	}
	ma, mb := j.matches, other.matches
	if len(mb) < len(ma) {
		ma, mb = mb, ma
	}
	for m := range ma {
		if _, ok := mb[m]; ok {
			return true
		}
	}
	return false
}

// maxAdmitted bounds the number of unfinished jobs the engine accepts
// (the successor of the seed's 128-slot FIFO queue).
const maxAdmitted = 128

// Engine is the controller's update dispatcher. The paper's demo
// processes its message queue strictly FIFO; this engine keeps that
// ordering exactly where it matters — jobs that touch a common switch
// or program a common flow execute in submission order — and runs
// conflict-free jobs concurrently on a bounded worker pool, so
// independent flows no longer wait behind each other's barriers.
type Engine struct {
	c       *Controller
	workers int
	sem     chan struct{} // worker-pool slots
	disp    *dispatcher   // sharded southbound dispatch path

	mu      sync.Mutex
	ctx     context.Context // set by run; jobs launch once available
	nextID  int
	jobs    map[int]*Job
	active  []*Job // unfinished jobs in submission order
	pending []*launch
	queued  int // admitted, not yet executing
	running int // executing

	// recovery holds the stats of the last Recover run (nil before).
	recovery *RecoveryStats
}

// launch pairs an admitted job with the done channels of the earlier
// conflicting jobs it must wait for and with what it does once its
// turn comes: execute the plan, or — for a recovered job whose state
// was not adoptable — go straight to the abort path.
type launch struct {
	job  *Job
	deps []<-chan struct{}
	run  func(context.Context, *Job) (*FailureReport, error)
}

func newEngine(c *Controller, workers int) *Engine {
	if workers <= 0 {
		workers = defaultEngineWorkers
	}
	e := &Engine{
		c:       c,
		workers: workers,
		sem:     make(chan struct{}, workers),
		jobs:    make(map[int]*Job),
	}
	e.disp = newDispatcher(e, c.cfg.DispatchShards)
	return e
}

// defaultEngineWorkers is the engine's default concurrency: update
// execution is barrier-bound (network waits), not CPU-bound, so the
// default does not track GOMAXPROCS.
const defaultEngineWorkers = 8

// admitSpec builds a job's journal admission record: identity always,
// plus — for recoverable jobs — everything Recover needs to rebuild
// the execution DAG and its rollback spec.
func admitSpec(job *Job) *journal.Admit {
	a := &journal.Admit{
		Algorithm: job.Algorithm,
		Interval:  job.Interval,
		Mode:      uint8(job.Mode),
	}
	spec := job.rollback
	if spec == nil {
		return a
	}
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

// journalAdmit makes an admitted job durable before anything can be
// dispatched for it. Recovered jobs are already in the journal and are
// not re-admitted.
func (e *Engine) journalAdmit(job *Job) {
	jl := e.c.cfg.Journal
	if jl == nil || job.Recovered {
		return
	}
	if err := jl.Append(journal.Record{Kind: journal.KindAdmit, Job: job.ID, Admit: admitSpec(job)}); err != nil {
		e.c.logger.Warn("journal admit failed", "job", job.ID, "err", err)
	}
}

// errJournalWriteAhead fails a job whose next dispatch could not be
// made durable first. The switches never saw the undispatched mods, so
// the already-dispatched prefix aborts through the normal path.
var errJournalWriteAhead = errors.New("journal write-ahead append failed; refusing to dispatch")

// journalDelta records one write-behind per-node transition (confirmed
// deltas): a failed append costs restart efficiency, never safety, so
// it is logged and tolerated.
func (e *Engine) journalDelta(kind journal.Kind, job, node int) {
	jl := e.c.cfg.Journal
	if jl == nil {
		return
	}
	if err := jl.Append(journal.Record{Kind: kind, Job: job, Node: node}); err != nil {
		e.c.logger.Warn("journal delta failed", "job", job, "node", node, "err", err)
	}
}

// journalDispatchBatch write-aheads one released wave as a single
// grouped dispatched-delta record (one append and one fsync window for
// the whole wave; a lone node journals as a plain dispatched delta). A
// false return means the wave could not be made durable — the caller
// MUST NOT dispatch any of it: the journal's dispatched set has to
// stay a superset of what any switch can have seen, or a restarted
// controller would never reconcile that switch's state. nodes must be
// strictly ascending (the batch codec delta-encodes the gaps).
func (e *Engine) journalDispatchBatch(job int, nodes []int) bool {
	jl := e.c.cfg.Journal
	if jl == nil {
		return true
	}
	metrics.JournalBatchWidth.Observe(int64(len(nodes)))
	rec := journal.Record{Kind: journal.KindDispatched, Job: job}
	if len(nodes) == 1 {
		rec.Node = nodes[0]
	} else {
		rec.Kind = journal.KindDispatchedBatch
		rec.Nodes = nodes
	}
	if err := jl.Append(rec); err != nil {
		e.c.logger.Warn("journal write-ahead failed; wave not dispatched", "job", job, "nodes", len(nodes), "err", err)
		return false
	}
	return true
}

// journalTerminal records a job's terminal phase. A shutdown
// cancellation is deliberately NOT journaled as terminal: a cancelled
// job is live state the restarted controller must recover; marking it
// finished would defeat recovery.
func (e *Engine) journalTerminal(job *Job, jobErr error) {
	jl := e.c.cfg.Journal
	if jl == nil || errors.Is(jobErr, context.Canceled) {
		return
	}
	rec := journal.Record{Kind: journal.KindTerminal, Job: job.ID, Done: jobErr == nil}
	if jobErr != nil {
		rec.Error = jobErr.Error()
	}
	if err := jl.Append(rec); err != nil {
		e.c.logger.Warn("journal terminal failed", "job", job.ID, "err", err)
	}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth counts jobs admitted but not yet executing.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued
}

// RunningCount counts jobs currently executing.
func (e *Engine) RunningCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
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
	// ModeDecentralized broadcasts per-switch plan partitions once and
	// lets the switches coordinate peer-to-peer.
	Mode ExecMode
}

// SubmitPlan enqueues a single-policy update job executing the given
// dependency plan: each switch's FlowMod is issued the moment its
// predecessors' barriers arrive. A round schedule enters as
// core.PlanFromSchedule(s) — its layered plan releases round r+1 on
// round r's last barrier reply, exactly the paper's loop; a sparse plan
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
	var cleanupAt []topo.NodeID
	if opts.Cleanup {
		cleanupAt = staleSwitches(in)
	}
	ep, err := e.flowExecPlan(in, p, match, len(p.Nodes), cleanupAt)
	if err != nil {
		return nil, err
	}
	return newJob(ep, opts, &rollbackSpec{in: in, match: match, props: p.Guarantees}), nil
}

// flowExecPlan materializes one flow's plan: every update node points
// the flow at its switch's new-path successor, every cleanup node (see
// newExecPlan for cleanupFrom/cleanupAt) deletes the flow's rule.
func (e *Engine) flowExecPlan(in *core.Instance, p *core.Plan, match openflow.Match, cleanupFrom int, cleanupAt []topo.NodeID) (execPlan, error) {
	n := len(p.Nodes) + len(cleanupAt)
	fms := make([]*openflow.FlowMod, n) // one backing array for the n one-mod nodes
	mods := make([][]*openflow.FlowMod, n)
	for i := range fms {
		if i >= cleanupFrom {
			fms[i] = deleteFlowMod(match)
		} else {
			fm, err := e.updateFlowMod(in, p.Nodes[i].Switch, match)
			if err != nil {
				return execPlan{}, err
			}
			fms[i] = fm
		}
		mods[i] = fms[i : i+1 : i+1]
	}
	return newExecPlan(p, mods, cleanupFrom, cleanupAt), nil
}

// SubmitJoint enqueues several policies as one job: per joint round,
// every flow's FlowMods for that round are sent together (switches
// shared by multiple flows receive their batch in one burst), and the
// next round is released by the barriers of the union of touched
// switches. As a plan, a joint round is a layer whose nodes carry
// several FlowMods.
func (e *Engine) SubmitJoint(ju *core.JointUpdate, matches []openflow.Match, opts SubmitOptions) (*Job, error) {
	if len(matches) != len(ju.Instances) {
		return nil, fmt.Errorf("controller: %d matches for %d policies", len(matches), len(ju.Instances))
	}
	for f, in := range ju.Instances {
		if err := ju.Schedules[f].Validate(in); err != nil {
			return nil, fmt.Errorf("controller: policy %d: %w", f, err)
		}
	}
	sched := &core.Schedule{
		Algorithm: "joint-" + ju.Schedules[0].Algorithm,
		Rounds:    make([][]topo.NodeID, ju.NumRounds()),
	}
	var mods [][]*openflow.FlowMod
	for i := range sched.Rounds {
		// Deterministic order: by switch, then by flow.
		byNode := ju.Round(i)
		for n := range byNode {
			sched.Rounds[i] = append(sched.Rounds[i], n)
		}
		slices.Sort(sched.Rounds[i])
		for _, n := range sched.Rounds[i] {
			var burst []*openflow.FlowMod
			for _, fu := range byNode[n] {
				fm, err := e.updateFlowMod(ju.Instances[fu.Flow], n, matches[fu.Flow])
				if err != nil {
					return nil, err
				}
				burst = append(burst, fm)
			}
			mods = append(mods, burst)
		}
	}
	p := core.PlanFromSchedule(sched)
	var cleanupAt []topo.NodeID
	if opts.Cleanup {
		stale := make(map[topo.NodeID][]*openflow.FlowMod)
		for f, in := range ju.Instances {
			for _, n := range staleSwitches(in) {
				stale[n] = append(stale[n], deleteFlowMod(matches[f]))
			}
		}
		for n := range stale {
			cleanupAt = append(cleanupAt, n)
		}
		slices.Sort(cleanupAt)
		for _, n := range cleanupAt {
			mods = append(mods, stale[n])
		}
	}
	return e.enqueue(newJob(newExecPlan(p, mods, len(p.Nodes), cleanupAt), opts, nil))
}

// updateFlowMod builds the update FlowMod for one switch of one flow:
// point the flow at the switch's new-path successor. MODIFY is used
// (the rule exists under the old policy); for new-path-only switches
// the OF 1.0 MODIFY semantics insert the missing rule.
func (e *Engine) updateFlowMod(in *core.Instance, node topo.NodeID, match openflow.Match) (*openflow.FlowMod, error) {
	succ, ok := in.NewSucc(node)
	if !ok {
		return nil, fmt.Errorf("switch %d has no new-path successor", node)
	}
	return e.c.PathFlowMod(node, succ, match, openflow.FlowModify)
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

// deleteFlowMod builds the FlowMod that removes a flow's rule.
func deleteFlowMod(match openflow.Match) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    match,
		Command:  openflow.FlowDelete,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
	}
}

// newJob wraps an execution DAG as a job that is built but not yet
// admitted (no id). The job takes its algorithm name from the plan; a
// nil rollback marks a shape the engine cannot reverse.
func newJob(plan execPlan, opts SubmitOptions, rollback *rollbackSpec) *Job {
	job := &Job{
		Algorithm: plan.dag.Algorithm,
		Interval:  opts.Interval,
		Mode:      opts.Mode,
		plan:      plan,
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
// Every submission path ends here. Disjoint jobs proceed immediately,
// bounded only by the worker pool.
func (e *Engine) enqueueAll(jobs []*Job) error {
	e.mu.Lock()
	if len(e.active)+len(jobs) > maxAdmitted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %d active + %d submitted > %d",
			ErrQueueFull, len(e.active), len(jobs), maxAdmitted)
	}
	launches := make([]*launch, len(jobs))
	for i, job := range jobs {
		e.nextID++
		job.ID = e.nextID
		launches[i] = &launch{job: job, deps: e.admitLocked(job), run: e.execute}
	}
	ctx := e.ctx
	if ctx == nil {
		e.pending = append(e.pending, launches...)
	}
	e.mu.Unlock()
	// Admission is journaled (and synced) before any job goroutine
	// launches: a job either never reached the journal (and sent
	// nothing), or is durably recoverable.
	for _, job := range jobs {
		e.journalAdmit(job)
	}
	if ctx != nil {
		for _, l := range launches {
			go e.runJob(ctx, l)
		}
	}
	return nil
}

// admitLocked registers a job as active and returns the done channels
// of every earlier unfinished job it conflicts with — including earlier
// members of the same batch. Caller holds e.mu.
func (e *Engine) admitLocked(job *Job) []<-chan struct{} {
	e.jobs[job.ID] = job
	var deps []<-chan struct{}
	for _, prev := range e.active {
		if prev.conflictsWith(job) {
			deps = append(deps, prev.done)
		}
	}
	e.active = append(e.active, job)
	e.queued++
	return deps
}

// Job looks a job up by ID.
func (e *Engine) Job(id int) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns all known jobs in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.jobs))
	for id := 1; id <= e.nextID; id++ {
		if j, ok := e.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// run starts the dispatcher: jobs admitted before the controller
// started are launched now; later submissions launch directly from
// enqueueAll.
func (e *Engine) run(ctx context.Context) {
	e.disp.start(ctx)
	e.mu.Lock()
	e.ctx = ctx
	pending := e.pending
	e.pending = nil
	e.mu.Unlock()
	for _, l := range pending {
		go e.runJob(ctx, l)
	}
}

// runJob is the one job lifecycle: wait for conflicting predecessors,
// claim a worker slot, begin, run, finish, release. The pprof label
// tags the job's event loop (and everything it blocks on) in CPU and
// goroutine profiles.
func (e *Engine) runJob(ctx context.Context, l *launch) {
	job := l.job
	if err := e.awaitTurn(ctx, l.deps); err != nil {
		e.finish(job, err, nil)
		e.retire(job, false)
		return
	}
	e.mu.Lock()
	e.queued--
	e.running++
	e.mu.Unlock()
	e.begin(job)
	pprof.Do(ctx, pprof.Labels("tsu_job", strconv.Itoa(job.ID)), func(ctx context.Context) {
		report, err := l.run(ctx, job)
		e.finish(job, err, report)
	})
	<-e.sem
	e.retire(job, true)
}

// awaitTurn blocks until every conflicting predecessor finished and a
// worker slot is claimed.
func (e *Engine) awaitTurn(ctx context.Context, deps []<-chan struct{}) error {
	for _, d := range deps {
		select {
		case <-d:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retire removes a finished job from the active set and fixes the
// queue counters. started reports whether the job consumed a worker
// slot (reached execute).
func (e *Engine) retire(job *Job, started bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, j := range e.active {
		if j == job {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
	// The job stays queryable in e.jobs, but it can no longer be a
	// conflict predecessor — drop the footprint so long-lived
	// controllers don't accumulate it for every job ever submitted.
	job.nodes, job.matches = nil, nil
	if started {
		e.running--
	} else {
		e.queued--
	}
}

// publish delivers an event to every subscriber; on terminal events
// the subscriber channels are closed and dropped. Non-terminal events
// are appended to the job's publish log for late-subscriber replay.
// Caller must hold j.mu.
func publishLocked(j *Job, ev JobEvent) {
	terminal := ev.State == JobDone || ev.State == JobFailed
	if !terminal {
		j.events = append(j.events, ev)
	}
	for _, ch := range j.subs {
		ch <- ev // buffered for the full event count, never blocks
		if terminal {
			close(ch)
		}
	}
	if terminal {
		j.subs = nil
	}
}

// begin moves a job to JobRunning.
func (e *Engine) begin(job *Job) {
	job.mu.Lock()
	job.state = JobRunning
	job.started = e.c.clock.Now()
	job.mu.Unlock()
}

// finish is the only way a job reaches a terminal state: journal the
// terminal phase, set the state (JobDone when err is nil, JobFailed
// otherwise, with the abort path's structured report when there is
// one), notify subscribers, release waiters, log.
func (e *Engine) finish(job *Job, err error, report *FailureReport) {
	e.journalTerminal(job, err)
	state := JobDone
	if err != nil {
		state = JobFailed
	}
	job.mu.Lock()
	job.state = state
	job.err = err
	job.failure = report
	job.finished = e.c.clock.Now()
	publishLocked(job, JobEvent{State: state, Err: err})
	job.mu.Unlock()
	close(job.done)
	switch {
	case err == nil:
		e.c.logger.Info("update job done", "job", job.ID, "mode", job.Mode.String(),
			"installs", job.plan.len(), "depth", job.plan.depth, "sparse", job.plan.dag.Sparse)
	case report == nil:
		e.c.logger.Warn("update job failed", "job", job.ID, "err", err)
	default:
		e.c.logger.Warn("update job aborted", "job", job.ID, "phase", report.Phase,
			"installed", len(report.Installed), "rolledBack", len(report.RolledBack), "err", err)
	}
}

// nodeAck is one install's outcome, delivered to the job's event loop
// as a value: by a connection read loop resolving a barrier sink, by a
// dispatch shard reporting a write failure or a fence bounce, or (in
// executeRollback, which keeps its own private channel) by a rollback
// goroutine. sent reports whether any FlowMod may have left for the
// switch before the error — such a node may have taken effect even
// without a barrier reply, so the rollback prefix must include it.
// job filters stale acks on the pooled ack channels; rollback's
// private channels leave it zero.
type nodeAck struct {
	job      int
	idx      int
	flowMods int
	started  time.Time
	finished time.Time
	sent     bool
	err      error
}

// execute runs a job's execution DAG on the dispatch path its mode
// selects and returns how it ended: (nil, nil) when every install
// confirmed, otherwise the failure and — when the abort path ran — its
// report. An adopted decentralized job resumes controller-driven: the
// switches' plan agents lost their peer protocol state with the old
// controller process, but the update FlowMods are idempotent MODIFYs,
// so ack-driven dispatch from the recovered frontier is safe and makes
// progress.
func (e *Engine) execute(ctx context.Context, job *Job) (*FailureReport, error) {
	switch {
	case job.plan.len() == 0:
		return nil, nil
	case job.Mode == ModeDecentralized && !job.Adopted:
		return e.executeDecentralized(ctx, job)
	default:
		return e.runDAG(ctx, job)
	}
}

// runDAG runs one job's execution DAG ack-driven: every node whose
// dependencies are confirmed gets its FlowMod(s) sent followed by a
// barrier request, and each barrier reply immediately releases the
// installs it unblocks — per-node barriers instead of per-round
// barriers, so a slow switch stalls only its own dependents. For a
// layered DAG this is exactly the loop §2 of the paper narrates
// (round r+1's sends released by round r's last barrier reply),
// including removing each switch from the waiting set as its reply
// arrives; for a sparse DAG independent branches overtake each
// other's stragglers.
//
// Dispatch runs on the engine's sharded path (see dispatch.go): this
// single event loop releases nodes, journals each release wave as one
// grouped write-ahead append, and hands sends to the shard owning each
// switch connection; barrier replies come back as plain values from
// the connection read loops. Steady state the loop spawns no
// goroutines and allocates nothing per install. Single-threaded by
// construction: all release bookkeeping, journaling decisions and
// timeout synthesis happen here, with shards doing only coalesced I/O.
func (e *Engine) runDAG(ctx context.Context, job *Job) (*FailureReport, error) {
	n := job.plan.len()
	st := e.disp.acquire(n)
	prog := newPlanProgress(job)

	// Release the roots. On a fresh job this is exactly the roots; on
	// an adopted job the reconciliation's pre-confirmed ideal (down-
	// closed, so its members release in dependency order from the
	// roots) is confirmed synthetically inside collectWave, and real
	// dispatch resumes from the frontier it releases.
	e.collectWave(job, st, prog, prog.start(), 0)
	if !e.dispatchWave(job, st) {
		// The initial wave never became durable and nothing was handed
		// to a shard: the switches saw none of this job, so fail plain
		// instead of aborting.
		e.disp.release(st)
		return nil, errJournalWriteAhead
	}
	e.pump(ctx, job, st)

	// Timers are single re-armed channels over FIFO queues, not one
	// timer per install: deadlines (sendq dues) are pushed in
	// nondecreasing order, so the head is always the earliest live
	// target. A timer armed for an already-resolved entry fires
	// spuriously and re-arms — never early, never missed.
	var timerC, dueC <-chan time.Time
	var timerAt, dueAt time.Time

	for st.nDone < n {
		for st.deads.len() > 0 {
			if i, _ := st.deads.peek(); st.status[int(i)] != nsInflight {
				st.deads.pop()
				continue
			}
			break
		}
		if st.deads.len() > 0 {
			if _, dl := st.deads.peek(); timerC == nil || timerAt.After(dl) {
				timerC = e.c.clock.After(dl.Sub(e.c.clock.Now()))
				timerAt = dl
			}
		}
		if st.sendq.len() > 0 && st.failing == nil {
			if _, due := st.sendq.peek(); dueC == nil || dueAt.After(due) {
				dueC = e.c.clock.After(due.Sub(e.c.clock.Now()))
				dueAt = due
			}
		}

		select {
		case a := <-st.acks:
			e.handleAck(ctx, job, st, prog, a)
		case <-timerC:
			timerC = nil
			e.expireDeadlines(ctx, job, st, e.c.clock.Now())
		case <-dueC:
			dueC = nil // pump below releases the due installs
		case <-ctx.Done():
			// Engine shutdown: abandon the dispatch state (stragglers
			// may still write to its ack channel) and fail the job, the
			// exact semantics of the old per-goroutine path.
			e.abandon(job, st)
			return nil, ctx.Err()
		}
		// Coalesce: fold every ack already queued into the same release
		// wave, so one journal append and one shard hand-off cycle cover
		// all of them.
	drained:
		for {
			select {
			case a := <-st.acks:
				e.handleAck(ctx, job, st, prog, a)
			default:
				break drained
			}
		}
		if st.failing == nil {
			if !e.dispatchWave(job, st) {
				e.noteFailure(ctx, job, st, errJournalWriteAhead)
			}
			e.pump(ctx, job, st)
		}
		if st.failing != nil && st.fences == 0 {
			break // every shard bounced its fence: the dispatched set is final
		}
	}

	defer e.disp.release(st)
	if st.failing != nil {
		return e.abort(ctx, job, st.failing, st.dispatched, st.confirmed)
	}
	return nil, nil
}

// collectWave folds a just-released node set into the pending wave.
// Pre-confirmed nodes (adopted jobs) are confirmed synthetically with
// zero-duration installs and their releases folded recursively; the
// scratch ring owns the traversal because prog.confirm reuses the
// released slice's backing array across calls.
func (e *Engine) collectWave(job *Job, st *jobDispatch, prog *planProgress, released []int, by topo.NodeID) {
	for _, s := range released {
		st.releasedBy[s] = by
		st.ready.push(int32(s))
	}
	for st.ready.len() > 0 {
		i := int(st.ready.pop())
		if i < len(job.preConfirmed) && job.preConfirmed[i] {
			st.dispatched[i] = true
			st.confirmed[i] = true
			st.status[i] = nsDone
			st.nDone++
			now := e.c.clock.Now()
			for _, s := range prog.confirm(i, InstallTiming{Started: now, Finished: now}) {
				st.releasedBy[s] = 0
				st.ready.push(int32(s))
			}
			continue
		}
		st.wave = append(st.wave, i)
	}
}

// dispatchWave makes the pending wave durable as one grouped
// dispatched-delta append, then queues every node for its send slot:
// immediately, or after the job's interval pause for non-root layers
// (the same pause the old per-goroutine path slept before sending). A
// false return means the journal refused the write-ahead — nothing of
// the wave may be dispatched.
func (e *Engine) dispatchWave(job *Job, st *jobDispatch) bool {
	if len(st.wave) == 0 {
		return true
	}
	slices.Sort(st.wave) // the batch codec wants ascending node order
	if !e.journalDispatchBatch(job.ID, st.wave) {
		st.wave = st.wave[:0]
		return false
	}
	var due time.Time
	if job.Interval > 0 {
		due = e.c.clock.Now().Add(job.Interval)
	}
	for _, i := range st.wave {
		st.dispatched[i] = true
		st.status[i] = nsQueued
		if job.Interval > 0 && job.plan.layers[i] > 0 {
			st.sendq.push(int32(i), due)
		} else {
			st.sendNow.push(int32(i))
		}
	}
	metrics.DispatchReadyDepth.Add(int64(len(st.wave)))
	st.wave = st.wave[:0]
	return true
}

// pump hands queued installs to their shards: everything released
// without a pause immediately, plus any paused install whose due time
// arrived.
func (e *Engine) pump(ctx context.Context, job *Job, st *jobDispatch) {
	for st.sendNow.len() > 0 {
		if i := int(st.sendNow.pop()); st.status[i] == nsQueued {
			e.sendToShard(ctx, job, st, i)
		}
	}
	if st.sendq.len() == 0 {
		return
	}
	now := e.c.clock.Now()
	for st.sendq.len() > 0 {
		i32, due := st.sendq.peek()
		i := int(i32)
		if st.status[i] != nsQueued {
			st.sendq.pop()
			continue
		}
		if due.After(now) {
			return
		}
		st.sendq.pop()
		e.sendToShard(ctx, job, st, i)
	}
}

// sendToShard marks one install in flight, arms its barrier deadline,
// and hands it to the shard owning its switch connection. The
// RoundTimeout deadline runs on the controller's injected clock, like
// every other engine wait, so virtual-clock runs time out at
// RoundTimeout *virtual* time instead of hanging for 30 wall-clock
// seconds.
func (e *Engine) sendToShard(ctx context.Context, job *Job, st *jobDispatch, i int) {
	st.status[i] = nsInflight
	metrics.DispatchReadyDepth.Dec()
	sh := e.disp.shardFor(uint64(job.plan.sw(i)))
	e.disp.inflight[sh].Inc()
	st.deads.push(int32(i), e.c.clock.Now().Add(e.c.cfg.RoundTimeout))
	select {
	case e.disp.shards[sh].reqs <- shardReq{job: job, st: st, idx: i}:
	case <-ctx.Done():
		// Shutdown: the shard loops may be gone; the event loop's ctx
		// branch abandons the job on its next turn.
	}
}

// handleAck processes one install outcome (or fence bounce) from the
// job's ack channel.
func (e *Engine) handleAck(ctx context.Context, job *Job, st *jobDispatch, prog *planProgress, a nodeAck) {
	if a.job != job.ID {
		return // stale ack from the pooled channel's previous owner
	}
	if a.idx == fenceIdx {
		st.fences--
		if st.fences == 0 {
			e.finalizeCancel(job, st)
		}
		return
	}
	i := a.idx
	if st.status[i] != nsInflight {
		return // duplicate: a reply racing a synthesized timeout or a write error
	}
	node := job.plan.sw(i)
	st.status[i] = nsDone
	st.nDone++
	e.disp.inflight[e.disp.shardFor(uint64(node))].Dec()
	if a.err != nil {
		if !a.sent {
			// Provably nothing left for the switch (skipped after the
			// cancel, or its encoding failed): it cannot have taken
			// effect. Everything else stays dispatched — a write error
			// does not prove the switch never saw the message, and the
			// undo FlowMods are idempotent, so over-covering is safe.
			st.dispatched[i] = false
		}
		e.noteFailure(ctx, job, st, a.err)
		return
	}
	// A successful install is recorded even when it lands after the
	// first failure: the rollback prefix must be exact, and a node that
	// confirmed between the error and the fence did take effect.
	st.confirmed[i] = true
	e.journalDelta(journal.KindConfirmed, job.ID, i)
	// Control messages per confirmed install: the FlowMods plus the
	// barrier request and its reply.
	job.addMessages(node, MessageStats{Ctrl: a.flowMods + 2})
	rel := prog.confirm(i, InstallTiming{
		ReleasedBy: st.releasedBy[i],
		FlowMods:   a.flowMods,
		Started:    a.started,
		Finished:   a.finished,
	})
	// Release: every install the ack unblocks joins the next wave —
	// unless the job is aborting, in which case confirmations are only
	// recorded, never acted on.
	if st.failing == nil {
		e.collectWave(job, st, prog, rel, node)
	}
}

// expireDeadlines synthesizes barrier-timeout failures for every
// in-flight install whose deadline passed — the event-loop equivalent
// of the old per-goroutine clock.After race against the barrier reply.
// The dead entry's sink stays registered; a late reply finds the node
// already done and is dropped.
func (e *Engine) expireDeadlines(ctx context.Context, job *Job, st *jobDispatch, now time.Time) {
	for st.deads.len() > 0 {
		i32, dl := st.deads.peek()
		i := int(i32)
		if st.status[i] != nsInflight {
			st.deads.pop()
			continue
		}
		if dl.After(now) {
			return
		}
		st.deads.pop()
		st.status[i] = nsDone
		st.nDone++
		e.disp.inflight[e.disp.shardFor(uint64(job.plan.sw(i)))].Dec()
		e.noteFailure(ctx, job, st, fmt.Errorf("install at %d (layer %d): barrier reply: %w", job.plan.sw(i), job.plan.layers[i], context.DeadlineExceeded))
	}
}

// noteFailure records the job's first failure and fences every shard:
// shards process their queues in order, so once each fence bounces
// back, no FlowMod of this job can reach a wire anymore — only then is
// the dispatched set final and the abort safe to start.
func (e *Engine) noteFailure(ctx context.Context, job *Job, st *jobDispatch, err error) {
	if st.failing != nil {
		return
	}
	st.failing = err
	st.cancelled.Store(true)
	st.fences = len(e.disp.shards)
	for _, sh := range e.disp.shards {
		select {
		case sh.reqs <- shardReq{job: job, st: st, idx: fenceIdx}:
		case <-ctx.Done():
			st.fences-- // the shard loop exited; it cannot write anything anyway
		}
	}
	if st.fences == 0 {
		e.finalizeCancel(job, st)
	}
}

// finalizeCancel runs once the last fence bounced: every still-queued
// node provably never reached a wire (dispatched reverts to false —
// matching the old path's cancelled-during-pause semantics), and every
// in-flight node may have (dispatched stays true) but gets no further
// barrier wait — the prompt equivalent of the old cancel-drain.
func (e *Engine) finalizeCancel(job *Job, st *jobDispatch) {
	for i := range st.status {
		switch st.status[i] {
		case nsQueued:
			st.status[i] = nsDone
			st.nDone++
			st.dispatched[i] = false
			metrics.DispatchReadyDepth.Dec()
		case nsInflight:
			st.status[i] = nsDone
			st.nDone++
			e.disp.inflight[e.disp.shardFor(uint64(job.plan.sw(i)))].Dec()
		}
	}
}

// abandon corrects the dispatch gauges for a job cut off by engine
// shutdown and marks its state unrecyclable (late acks may still
// arrive on its channel).
func (e *Engine) abandon(job *Job, st *jobDispatch) {
	st.abandoned = true
	for i := range st.status {
		switch st.status[i] {
		case nsQueued:
			metrics.DispatchReadyDepth.Dec()
		case nsInflight:
			e.disp.inflight[e.disp.shardFor(uint64(job.plan.sw(i)))].Dec()
		}
	}
}
