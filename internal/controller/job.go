package controller

import (
	"bytes"
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// JobState is the lifecycle of an update job.
type JobState int

const (
	// JobQueued: admitted, waiting on conflicting predecessors.
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

// Job is one queued update: the REST message object of the paper,
// carrying the execution DAG and the per-switch OpenFlow messages of
// every node.
type Job struct {
	ID        int
	Algorithm string
	Interval  time.Duration // pause before a released non-root install (REST "interval")
	Mode      ExecMode      // dispatch path (controller-driven or decentralized)

	shape dagShape // of plan; kept for life

	// What only admission, execution and rollback read: immutable after
	// construction, and dropped by Engine.finish — a finished job is its
	// shape and its trace, not its plan. nodes and matches are the
	// conflict footprint: the switches the job touches and the flow
	// matches it programs; two jobs conflict when either set intersects,
	// and the engine runs conflicting jobs in submission order and
	// disjoint jobs concurrently. rollback carries what the abort path
	// needs to build and verify a reverse plan; nil for jobs the engine
	// cannot roll back (joint updates, two-phase), which fail plain on
	// mid-plan errors. preConfirmed, set only on adopted jobs, marks the
	// plan nodes the reconciliation proved already applied: execute
	// confirms them synthetically and resumes dispatch from the frontier
	// they release.
	plan         *execPlan
	nodes        []topo.NodeID    // ascending, distinct
	matches      []openflow.Match // ascending by compareMatch, distinct
	rollback     *rollbackSpec
	preConfirmed []bool

	// Launch bookkeeping, guarded by Engine.mu. run is what the job does
	// once launched (Engine.execute, or the abort path for a recovered
	// job that was not adoptable). blockers counts what still keeps it
	// from launching — see admitLocked; the job gets its goroutine when
	// the count reaches zero, and a negative count marks a job that was
	// failed while it waited. succs are the later conflicting jobs that
	// count this one as a blocker.
	run      func(context.Context, *Job) (*FailureReport, error)
	blockers int
	succs    []*Job

	// Recovered marks a job reconstructed from the journal after a
	// controller restart; Adopted additionally marks a mid-flight job
	// whose journal and switch state agreed, so execution resumed from
	// the recovered frontier instead of rolling back. Both are set
	// before the job launches and immutable after.
	Recovered bool
	Adopted   bool

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
func (j *Job) NumRounds() int { return j.shape.depth }

// NumInstalls returns the number of per-switch installs of the job's
// execution DAG.
func (j *Job) NumInstalls() int { return j.shape.installs }

// NumEdges returns the number of happens-before edges of the job's
// execution DAG.
func (j *Job) NumEdges() int { return j.shape.edges }

// PlanShape reports the execution DAG's shape: depth (layers), width
// (peak install parallelism), critical path (sequential barrier waits
// on the longest chain), and whether the DAG is sparse (ack-driven
// past layer barriers) rather than layered.
func (j *Job) PlanShape() (depth, width, critical int, sparse bool) {
	return j.shape.depth, j.shape.width, j.shape.critical, j.shape.sparse
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
	ch := make(chan JobEvent, j.shape.installs+j.shape.depth+2)
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
	j.nodes = make([]topo.NodeID, 0, len(j.plan.dag.Nodes))
	for i, nd := range j.plan.dag.Nodes {
		j.nodes = append(j.nodes, nd.Switch)
		for _, fm := range j.plan.mods[i] {
			// A flow's mods all carry its one match: skip the repeats
			// here and leave few for the sort.
			if n := len(j.matches); n == 0 || j.matches[n-1] != fm.Match {
				j.matches = append(j.matches, fm.Match)
			}
		}
	}
	slices.Sort(j.nodes)
	j.nodes = slices.Compact(j.nodes)
	slices.SortFunc(j.matches, compareMatch)
	j.matches = slices.Compact(j.matches)
}

// compareMatch is a total order on flow matches (any one, consistent
// with ==): what keeps a footprint's matches sorted.
func compareMatch(a, b openflow.Match) int {
	return cmp.Or(
		cmp.Compare(a.NWDst, b.NWDst),
		cmp.Compare(a.NWSrc, b.NWSrc),
		cmp.Compare(a.Wildcards, b.Wildcards),
		cmp.Compare(a.DLVLAN, b.DLVLAN),
		cmp.Compare(a.InPort, b.InPort),
		bytes.Compare(a.DLSrc[:], b.DLSrc[:]),
		bytes.Compare(a.DLDst[:], b.DLDst[:]),
		cmp.Compare(a.DLVLANPCP, b.DLVLANPCP),
		cmp.Compare(a.DLType, b.DLType),
		cmp.Compare(a.NWTOS, b.NWTOS),
		cmp.Compare(a.NWProto, b.NWProto),
		cmp.Compare(a.TPSrc, b.TPSrc),
		cmp.Compare(a.TPDst, b.TPDst),
	)
}

// conflictsWith reports whether the two jobs may not execute
// concurrently: they touch a common switch or program a common flow.
func (j *Job) conflictsWith(other *Job) bool {
	return intersects(j.nodes, other.nodes, cmp.Compare[topo.NodeID]) ||
		intersects(j.matches, other.matches, compareMatch)
}

// intersects reports whether two slices sorted by compare share an
// element: one merge pass.
func intersects[T any](a, b []T, compare func(T, T) int) bool {
	for i, k := 0, 0; i < len(a) && k < len(b); {
		switch c := compare(a[i], b[k]); {
		case c == 0:
			return true
		case c < 0:
			i++
		default:
			k++
		}
	}
	return false
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
