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

// Engine is the controller's update dispatcher. The paper's demo
// processes its message queue strictly FIFO; this engine keeps that
// ordering exactly where it matters — jobs that touch a common switch
// or program a common flow execute in submission order — and starts
// every other job the moment it is admitted and journaled, so
// independent flows never wait behind each other's barriers. There is
// no worker pool: a running job only waits on barrier replies, so the
// one bound is maxAdmitted, and a job that waits on conflicting
// predecessors holds a counter, not a goroutine. What the engine holds
// is bounded by what is in flight, not by what it has served: a finished
// job is stripped to its trace and only the newest retainTerminal of
// them stay known.
type Engine struct {
	c    *Controller
	disp dispatcher // walk-state recycler and dispatch gauges

	mu       sync.Mutex
	ctx      context.Context // set by run; jobs launch once available
	nextID   int
	jobs     map[int]*Job // active and terminal
	active   []*Job       // unfinished jobs in submission order
	terminal ring[*Job]   // finished jobs, oldest first, at most retainTerminal
	evicted  int          // finished jobs terminal has let go of
	queued   int          // admitted, not yet executing
	running  int          // executing

	// recovery holds the stats of the last Recover run (nil before);
	// recovering is set while Recover reconciles jobs not yet active.
	recovery   *RecoveryStats
	recovering bool
}

func newEngine(c *Controller) *Engine {
	return &Engine{c: c, jobs: make(map[int]*Job)}
}

// errJournalWriteAhead fails a job whose next dispatch could not be
// made durable first. The switches never saw the undispatched mods, so
// the already-dispatched prefix aborts through the normal path.
var errJournalWriteAhead = errors.New("journal write-ahead append failed; refusing to dispatch")

// confirmList is a job's confirmed installs that no journal record
// carries yet, recycled through the dispatcher's pool.
type confirmList struct{ nodes []int }

// noteConfirmed puts a confirmed install on the job's pending list, for
// the job's next journal record to carry. A confirm is write-behind: it
// only bounds from below what a restart finds in effect (reconcile asks
// the switches), so it costs no record of its own.
func (e *Engine) noteConfirmed(job *Job, node int) {
	if e.c.cfg.Journal == nil {
		return
	}
	if job.pending == nil {
		job.pending, _ = e.disp.confirms.Get().(*confirmList)
		if job.pending == nil {
			job.pending = &confirmList{}
		}
	}
	job.pending.nodes = append(job.pending.nodes, node)
}

// takeConfirms returns the job's pending confirms, ascending (the codec
// delta-encodes them); the list stays the job's until journalTerminal
// recycles it.
func (job *Job) takeConfirms() []int {
	if job.pending == nil {
		return nil
	}
	slices.Sort(job.pending.nodes)
	return job.pending.nodes
}

// journalWave write-aheads one released wave as a dispatched-batch
// record — one append for the whole wave — which also carries the job's
// pending confirms. A false return means the wave could not be made
// durable — the caller MUST NOT dispatch any of it: the journal's
// dispatched set has to stay a superset of what any switch can have
// seen, or a restarted controller would never reconcile that switch's
// state. nodes must be strictly ascending (the batch codec
// delta-encodes the gaps).
func (e *Engine) journalWave(job *Job, nodes []int) bool {
	jl := e.c.cfg.Journal
	if jl == nil {
		return true
	}
	metrics.JournalBatchWidth.Observe(int64(len(nodes)))
	rec := journal.Record{Kind: journal.KindDispatchedBatch, Job: job.ID, Nodes: nodes, Confirmed: job.takeConfirms()}
	if err := jl.Append(rec); err != nil {
		e.c.logger.Warn("journal write-ahead failed; wave not dispatched", "job", job.ID, "nodes", len(nodes), "err", err)
		return false
	}
	if job.pending != nil {
		job.pending.nodes = job.pending.nodes[:0]
	}
	return true
}

// journalTerminal records a job's terminal phase, with the confirms no
// earlier record carried, and recycles the job's pending list. A
// shutdown cancellation is deliberately NOT journaled as terminal: a
// cancelled job is live state the restarted controller must recover;
// marking it finished would defeat recovery.
func (e *Engine) journalTerminal(job *Job, jobErr error) {
	jl := e.c.cfg.Journal
	if jl != nil && !errors.Is(jobErr, context.Canceled) {
		rec := journal.Record{Kind: journal.KindTerminal, Job: job.ID, Done: jobErr == nil, Confirmed: job.takeConfirms()}
		if jobErr != nil {
			rec.Error = jobErr.Error()
		}
		if err := jl.Append(rec); err != nil {
			e.c.logger.Warn("journal terminal failed", "job", job.ID, "err", err)
		}
	}
	if job.pending != nil {
		job.pending.nodes = job.pending.nodes[:0]
		e.disp.confirms.Put(job.pending)
		job.pending = nil
	}
}

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

// oldestLive returns the lowest id of a job the engine still holds
// unfinished, which a decentralized push tells its switches: below it,
// no job will be asked about again. While Recover reconciles jobs it
// has not admitted yet, that is every job (0).
func (e *Engine) oldestLive() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recovering {
		return 0
	}
	oldest := e.nextID + 1
	for _, j := range e.active {
		oldest = min(oldest, j.ID)
	}
	return oldest
}

// Job looks a job up by ID.
func (e *Engine) Job(id int) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns all known jobs — the unfinished ones and the finished
// ones still retained — in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return a.ID - b.ID })
	return out
}

// Retention reports how many finished jobs the engine still answers for
// and how many it has forgotten since it started.
func (e *Engine) Retention() (retained, evicted int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.terminal.len(), e.evicted
}

// issued reports whether id was ever handed out: such an id the engine
// no longer knows belongs to a finished job that was evicted.
func (e *Engine) issued(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return id >= 1 && id <= e.nextID
}

// retireLocked files a terminal job among the retained ones; at
// capacity the oldest of them leaves the engine for good — unless its id
// names another job by now: one submitted between Start and Recover
// shares its id with a journaled job, which then took its place in
// e.jobs. Caller holds e.mu.
func (e *Engine) retireLocked(job *Job) {
	if e.terminal.len() == retainTerminal {
		if old := e.terminal.pop(); e.jobs[old.ID] == old {
			delete(e.jobs, old.ID)
		}
		e.evicted++
	}
	e.terminal.push(job)
}

// run releases the jobs admitted before the controller started — every
// unfinished job so far holds one blocker for that — and arranges the
// shutdown verdict of jobs that are still queued when ctx ends: they
// fail with ctx.Err() without having sent anything. Running jobs hear
// of ctx in their walks.
func (e *Engine) run(ctx context.Context) {
	e.mu.Lock()
	e.ctx = ctx
	early := slices.Clone(e.active)
	e.mu.Unlock()
	e.release(early)
	context.AfterFunc(ctx, func() {
		e.mu.Lock()
		unfinished := slices.Clone(e.active)
		e.mu.Unlock()
		e.failQueued(ctx.Err(), unfinished...)
	})
}

// release takes one blocker off each job and gives the jobs left with
// none their goroutine: a job starts its walk the moment nothing blocks
// it, and until then costs no goroutine.
func (e *Engine) release(jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	e.mu.Lock()
	ctx := e.ctx
	var ready []*Job
	for _, job := range jobs {
		if job.blockers--; job.blockers == 0 {
			e.queued--
			e.running++
			ready = append(ready, job)
		}
	}
	e.mu.Unlock()
	for _, job := range ready {
		go e.runJob(ctx, job)
	}
}

// failQueued ends, with err, those of jobs that never launched: the
// shutdown verdict, or an admission the journal refused. Taking a job
// voids its blocker count, so a release that arrives later passes it by
// and a second verdict finds nothing to take.
func (e *Engine) failQueued(err error, jobs ...*Job) {
	e.mu.Lock()
	var taken []*Job
	for _, job := range jobs {
		if job.blockers > 0 {
			job.blockers = -1
			taken = append(taken, job)
		}
	}
	e.mu.Unlock()
	for _, job := range taken {
		e.finish(job, err, nil)
	}
}

// runJob is a launched job's life: begin, run, finish. A job launched
// into a shutdown sends nothing. The pprof label tags the job's event
// loop (and everything it blocks on) in CPU and goroutine profiles.
func (e *Engine) runJob(ctx context.Context, job *Job) {
	if err := ctx.Err(); err != nil {
		e.finish(job, err, nil)
		return
	}
	e.begin(job)
	pprof.Do(ctx, pprof.Labels("tsu_job", strconv.Itoa(job.ID)), func(ctx context.Context) {
		report, err := job.run(ctx, job)
		e.finish(job, err, report)
	})
}

// begin moves a job to JobRunning.
func (e *Engine) begin(job *Job) {
	job.mu.Lock()
	job.state = JobRunning
	job.started = e.c.clock.Now()
	job.mu.Unlock()
}

// finish is the only way a job reaches a terminal state, and one step:
// journal the terminal phase; stop counting against admission and
// conflicts (leave active for the retained ring, fix the counters, strip
// the job to its trace); set the state (JobDone when err is nil,
// JobFailed otherwise, with the abort path's structured report when
// there is one) and wake the stream's readers; release waiters; release the
// conflicting successors, which launch if this was their last blocker;
// log. Whoever sees the job terminal therefore sees the engine without
// it.
//
// A job cut off by shutdown is left whole: it is not terminal to the
// journal either (see journalTerminal), and enqueueAll may still be
// journaling its admission from the plan when the shutdown verdict
// overtakes it.
func (e *Engine) finish(job *Job, err error, report *FailureReport) {
	e.journalTerminal(job, err)
	e.mu.Lock()
	if i := slices.Index(e.active, job); i >= 0 {
		e.active = slices.Delete(e.active, i, i+1)
		if job.blockers == 0 {
			e.running--
		} else {
			e.queued--
		}
	}
	e.retireLocked(job)
	if !errors.Is(err, context.Canceled) {
		job.plan, job.nodes, job.matches, job.rollback, job.preConfirmed = nil, nil, nil, nil, nil
	}
	succs := job.succs
	job.succs, job.run = nil, nil
	e.mu.Unlock()
	state := JobDone
	if err != nil {
		state = JobFailed
	}
	job.mu.Lock()
	job.state = state
	job.err = err
	job.failure = report
	job.finished = e.c.clock.Now()
	job.wakeLocked()
	job.mu.Unlock()
	close(job.done)
	e.release(succs)
	switch {
	case err == nil:
		e.c.logger.Info("update job done", "job", job.ID, "mode", job.Mode.String(),
			"installs", job.shape.installs, "depth", job.shape.depth, "sparse", job.shape.sparse)
	case report == nil:
		e.c.logger.Warn("update job failed", "job", job.ID, "err", err)
	default:
		e.c.logger.Warn("update job aborted", "job", job.ID, "phase", report.Phase,
			"installed", len(report.Installed), "rolledBack", len(report.RolledBack), "err", err)
	}
}

// nodeAck is one install's outcome, handed to the walk's event loop as
// a value: by a connection read loop resolving a barrier sink, or by the
// walk itself settling a failed write. sent reports whether any FlowMod
// may have left for the switch before the error — such a node may have
// taken effect even without a barrier reply, so it stays dispatched, and
// reconcile counts it in effect should its switch not answer. seq
// filters stale acks on the pooled ack channels.
type nodeAck struct {
	seq      uint64
	idx      int
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

// runDAG walks one job's execution DAG forward: each release wave is
// journaled write-ahead as one dispatched-batch record, each confirmed
// install is counted, published on the job's trace and pending for the
// job's next record, and a walk that failed after anything was
// dispatched goes to the abort path with what reconcile finds in
// effect. On an adopted job the reconciliation's pre-confirmed ideal is
// confirmed synthetically — nothing journaled or counted for it — and
// real dispatch resumes from the frontier it releases.
func (e *Engine) runDAG(ctx context.Context, job *Job) (*FailureReport, error) {
	run := core.NewPlanRun(job.plan.dag)
	ready := run.Reset(make([]int, 0, job.plan.len()))
	dispatched, _, err := e.walk(ctx, walkSpec{
		plan:     job.plan,
		interval: job.Interval,
		pre:      job.preConfirmed,
		journal:  func(nodes []int) bool { return e.journalWave(job, nodes) },
		confirm: func(i int, by topo.NodeID, a nodeAck) []int {
			if i >= len(job.preConfirmed) || !job.preConfirmed[i] {
				e.noteConfirmed(job, i)
				// Control messages per confirmed install: the FlowMod
				// plus the barrier request and its reply.
				job.addMessages(job.plan.sw(i), MessageStats{Ctrl: job.plan.flowMods(i) + 2})
			}
			job.confirmed(i, by, job.plan.flowMods(i), a.started, a.finished)
			ready = run.Complete(i, ready[:0])
			return ready
		},
	})
	if dispatched == nil {
		return nil, err
	}
	return e.abort(ctx, job, err, e.reconcile(ctx, job, dispatched).undo)
}

// walkSpec is what one walk of an execution DAG is parameterised by —
// data only: the walker never asks who is walking. A job's forward
// pass, the undo of its dispatched prefix, a policy install and a bare
// barrier are all walks.
type walkSpec struct {
	plan     *execPlan
	interval time.Duration // pause before a released non-root install
	pre      []bool        // nodes already in effect: confirmed synthetically, never sent

	// journal, when non-nil, makes a release wave (ascending node
	// indices) durable before any of it is written; false refuses the
	// wave.
	journal func(nodes []int) bool
	// confirm, when non-nil, is told every confirmed install in
	// confirmation order — the predecessor that released it and its ack,
	// whose instants the walk's clock read — and returns the nodes it
	// releases. Nil releases nothing (a plan without edges).
	confirm func(i int, by topo.NodeID, a nodeAck) []int
}

// walk runs one execution DAG ack-driven: every node whose
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
// One event loop on the caller's goroutine does all of it (see
// dispatch.go): it releases nodes, journals each release wave as one
// grouped write-ahead append, and writes every released install itself;
// barrier replies come back as plain values from the connection read
// loops. Steady state the loop spawns no goroutines and allocates
// nothing per install. Single-threaded by construction: release
// bookkeeping, journaling decisions, writes and timeout synthesis all
// happen here. It is the only code in the package that puts a
// FlowMod+barrier pair on a wire.
//
// A nil error means every node confirmed. Otherwise err is the first
// failure, and dispatched/confirmed are non-nil exactly when the walk
// failed after something may have reached a switch: dispatched marks
// nodes whose FlowMods may have (a down-closed superset of confirmed),
// final the instant the walk fails — no one else holds its installs. A
// walk the journal refused before its first send, or one cut off by
// ctx, returns nil sets — there is nothing (or no engine left) to undo
// with.
func (e *Engine) walk(ctx context.Context, w walkSpec) (dispatched, confirmed []bool, err error) {
	n := w.plan.len()
	st := e.disp.acquire(n, w)
	defer e.disp.release(st)

	for i, nd := range w.plan.dag.Nodes {
		if len(nd.Deps) == 0 {
			st.ready.push(int32(i))
		}
	}
	e.collectWave(st, nil, 0)
	if !e.dispatchWave(st) {
		// The initial wave never became durable and nothing was
		// written: the switches saw none of this plan.
		return nil, nil, errJournalWriteAhead
	}
	e.pump(ctx, st)

	// Timers are single re-armed channels over FIFO queues, not one
	// timer per install: deadlines (sendq dues) are pushed in
	// nondecreasing order, so the head is always the earliest live
	// target. A timer armed for an already-resolved entry fires
	// spuriously and re-arms — never early, never missed.
	var timerC, dueC <-chan time.Time
	var timerAt, dueAt time.Time

	for st.failing == nil && st.nDone < n {
		for st.deads.len() > 0 && st.status[st.deads.peek().idx] != nsInflight {
			st.deads.pop()
		}
		if st.deads.len() > 0 {
			if dl := st.deads.peek().at; timerC == nil || timerAt.After(dl) {
				timerC = e.c.clock.After(dl.Sub(e.c.clock.Now()))
				timerAt = dl
			}
		}
		if st.sendq.len() > 0 {
			if due := st.sendq.peek().at; dueC == nil || dueAt.After(due) {
				dueC = e.c.clock.After(due.Sub(e.c.clock.Now()))
				dueAt = due
			}
		}

		select {
		case a := <-st.acks:
			e.handleAck(st, a)
		case <-timerC:
			timerC = nil
			e.expireDeadlines(st, e.c.clock.Now())
		case <-dueC:
			dueC = nil // pump below releases the due installs
		case <-ctx.Done():
			e.withdraw(st)
			return nil, nil, ctx.Err()
		}
		// Coalesce: fold every ack already queued into the same release
		// wave, so one journal append covers all of them.
	drained:
		for {
			select {
			case a := <-st.acks:
				e.handleAck(st, a)
			default:
				break drained
			}
		}
		if st.failing == nil {
			if !e.dispatchWave(st) {
				st.noteFailure(errJournalWriteAhead)
			}
			e.pump(ctx, st)
		}
	}

	if st.failing == nil {
		return nil, nil, nil
	}
	e.withdraw(st)
	return slices.Clone(st.dispatched), slices.Clone(st.confirmed), st.failing
}

// collectWave folds a just-released node set (plus whatever the caller
// already pushed on the scratch ring) into the pending wave.
// Pre-confirmed nodes are confirmed synthetically with zero-duration
// installs and their releases folded recursively; the scratch ring owns
// the traversal because the confirm hook may reuse the released slice's
// backing array across calls.
func (e *Engine) collectWave(st *jobDispatch, released []int, by topo.NodeID) {
	for _, s := range released {
		st.releasedBy[s] = by
		st.ready.push(int32(s))
	}
	for st.ready.len() > 0 {
		i := int(st.ready.pop())
		if i < len(st.pre) && st.pre[i] {
			st.dispatched[i] = true
			st.status[i] = nsDone
			st.nDone++
			now := e.c.clock.Now()
			for _, s := range e.confirmNode(st, i, 0, nodeAck{started: now, finished: now}) {
				st.releasedBy[s] = 0
				st.ready.push(int32(s))
			}
			continue
		}
		st.wave = append(st.wave, i)
	}
}

// confirmNode records node i, released by by, as confirmed by ack a and
// returns what the walk's confirm hook says that releases.
func (e *Engine) confirmNode(st *jobDispatch, i int, by topo.NodeID, a nodeAck) []int {
	st.confirmed[i] = true
	if st.confirm == nil {
		return nil
	}
	return st.confirm(i, by, a)
}

// dispatchWave makes the pending wave durable as one dispatched-batch
// append, then queues every node for its send slot:
// immediately, or after the walk's interval pause for non-root layers.
// A false return means the journal refused the write-ahead — nothing of
// the wave may be dispatched.
func (e *Engine) dispatchWave(st *jobDispatch) bool {
	if len(st.wave) == 0 {
		return true
	}
	slices.Sort(st.wave) // the batch codec wants ascending node order
	if st.journal != nil && !st.journal(st.wave) {
		st.wave = st.wave[:0]
		return false
	}
	var due time.Time
	if st.interval > 0 {
		due = e.c.clock.Now().Add(st.interval)
	}
	for _, i := range st.wave {
		st.dispatched[i] = true
		st.status[i] = nsQueued
		if st.interval > 0 && st.plan.layers[i] > 0 {
			st.sendq.push(timed{int32(i), due})
		} else {
			st.sendNow.push(int32(i))
		}
	}
	e.disp.ready.Add(int64(len(st.wave)))
	st.wave = st.wave[:0]
	return true
}

// pump writes queued installs: everything released without a pause
// immediately, plus any paused install whose due time arrived. It stops
// at the walk's first failure, and a walk whose ctx has ended writes
// nothing more.
func (e *Engine) pump(ctx context.Context, st *jobDispatch) {
	for st.sendNow.len() > 0 && st.failing == nil && ctx.Err() == nil {
		if i := int(st.sendNow.pop()); st.status[i] == nsQueued {
			e.send(st, i)
		}
	}
	if st.sendq.len() == 0 {
		return
	}
	now := e.c.clock.Now()
	for st.sendq.len() > 0 && st.failing == nil && ctx.Err() == nil {
		next := st.sendq.peek()
		if st.status[next.idx] == nsQueued {
			if next.at.After(now) {
				return
			}
			e.send(st, int(next.idx))
		}
		st.sendq.pop()
	}
}

// handleAck settles one install's outcome.
func (e *Engine) handleAck(st *jobDispatch, a nodeAck) {
	if a.seq != st.seq {
		return // stale ack from the pooled channel's previous owner
	}
	i := a.idx
	if st.status[i] != nsInflight {
		return // duplicate: a reply racing a synthesized timeout or a write error
	}
	e.settle(st, i)
	if a.err != nil {
		if !a.sent {
			// Provably nothing left for the switch (its encoding failed):
			// it cannot have taken effect. Everything else stays
			// dispatched — a write error does not prove the switch never
			// saw the message.
			st.dispatched[i] = false
		}
		st.noteFailure(a.err)
		return
	}
	// A successful install is recorded even when it lands after the
	// first failure: a node whose reply was already queued when the walk
	// failed did take effect, and the job's trace says so.
	rel := e.confirmNode(st, i, st.releasedBy[i], a)
	// Release: every install the ack unblocks joins the next wave —
	// unless the walk is failing, in which case confirmations are only
	// recorded, never acted on.
	if st.failing == nil {
		e.collectWave(st, rel, st.plan.sw(i))
	}
}

// settle takes an in-flight install off the books: its barrier was
// answered, failed, timed out or is given up on.
func (e *Engine) settle(st *jobDispatch, i int) {
	st.status[i] = nsDone
	st.nDone++
	e.disp.inflight.Dec()
}

// expireDeadlines synthesizes barrier-timeout failures for every
// in-flight install whose deadline passed. A late reply finds the node
// already done and is dropped — or, once the walk has ended, finds no
// sink at all (dropSinks).
func (e *Engine) expireDeadlines(st *jobDispatch, now time.Time) {
	for st.deads.len() > 0 {
		next := st.deads.peek()
		i := int(next.idx)
		if st.status[i] != nsInflight {
			st.deads.pop()
			continue
		}
		if next.at.After(now) {
			return
		}
		st.deads.pop()
		e.settle(st, i)
		st.noteFailure(fmt.Errorf("install at %d (layer %d): barrier reply: %w", st.plan.sw(i), st.plan.layers[i], context.DeadlineExceeded))
	}
}

// withdraw ends a walk that stops short — failed, or cut off by its ctx:
// every still-queued node provably never reached a wire (dispatched
// reverts to false), every in-flight node may have (dispatched stays
// true) but gets no further barrier wait, and the sinks still out go.
func (e *Engine) withdraw(st *jobDispatch) {
	for i := range st.status {
		switch st.status[i] {
		case nsQueued:
			st.dispatched[i] = false
			e.disp.ready.Dec()
		case nsInflight:
			e.disp.inflight.Dec()
		}
	}
	e.dropSinks(st)
}

// dropSinks deregisters the barrier sinks a failed or abandoned walk
// still has out: an install whose deadline expired, or that withdraw
// gave up on, must not leave its sink behind for the life of the
// connection — a switch that drops barriers would
// accumulate one per timed-out install.
func (e *Engine) dropSinks(st *jobDispatch) {
	for i, sent := range st.dispatched {
		if !sent || st.confirmed[i] {
			continue
		}
		dp, err := e.c.datapath(uint64(st.plan.sw(i)))
		if err != nil {
			continue
		}
		dp.mu.Lock()
		for xid, s := range dp.sinks {
			if s.seq == st.seq {
				delete(dp.sinks, xid)
			}
		}
		dp.mu.Unlock()
	}
}

// walkFlat walks a plan without edges — one node per switch, mods[i]
// sent to nodes[i] ahead of its barrier (nil: a bare barrier) — outside
// any job: unjournaled, every switch written and barriered concurrently.
// It ends with ctx or with the engine, whichever comes first.
func (e *Engine) walkFlat(ctx context.Context, nodes []topo.NodeID, mods []*openflow.FlowMod) error {
	e.mu.Lock()
	ectx := e.ctx
	e.mu.Unlock()
	if ectx == nil {
		return errors.New("controller: not started")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(ectx, cancel)()
	p := &core.Plan{Nodes: make([]core.PlanNode, len(nodes))}
	for i, n := range nodes {
		p.Nodes[i].Switch = n
	}
	plan := newExecPlan(p, mods, len(nodes), nil)
	_, _, err := e.walk(ctx, walkSpec{plan: &plan})
	return err
}
