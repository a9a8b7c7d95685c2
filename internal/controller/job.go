package controller

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"

	"tsu/internal/api"
	"tsu/internal/openflow"
	"tsu/internal/topo"
	"tsu/internal/wirefmt"
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
// measured per round. Started and Finished are offsets from the job's
// start, as its installs' are.
type RoundTiming struct {
	Round    int
	Switches []topo.NodeID
	FlowMods int
	Cleanup  bool // true for the stale-rule garbage-collection round
	Started  time.Duration
	Finished time.Duration
}

// Duration returns the round's wall-clock time.
func (rt RoundTiming) Duration() time.Duration { return rt.Finished - rt.Started }

// InstallTiming records one confirmed install of the ack-driven
// dispatcher: which switch was updated, the dependency edge that
// released it (the predecessor whose barrier reply arrived last —
// zero for installs dispatched immediately), and the span from first
// FlowMod sent to barrier reply received, as offsets from the job's
// start (offset 0 is the instant the job began). The sequence of
// InstallTimings is the job's execution trace at per-node-barrier
// granularity; RoundTimings aggregate it per layer for the round view.
// The job keeps none: readers decode them from its trace (Job.trace).
type InstallTiming struct {
	Node       topo.NodeID
	ReleasedBy topo.NodeID // 0 when the install had no dependencies
	Started    time.Duration
	Finished   time.Duration
	Layer      int32
	FlowMods   int32
	Cleanup    bool
}

// Duration returns the install's wall-clock time.
func (it InstallTiming) Duration() time.Duration { return it.Finished - it.Started }

// JobEvent is one event of a job's progress stream, as a Cursor
// delivers it: a confirmed install (Install non-nil), a completed layer
// (Round non-nil, State JobRunning), or the terminal state (both nil,
// State JobDone/JobFailed). Install and Round point at the cursor's
// scratch: read-only, and only until the cursor's next event.
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
	// needs to build and verify a reverse plan. preConfirmed, set only
	// on adopted jobs, marks the plan nodes the reconciliation proved
	// already applied: execute confirms them synthetically and resumes
	// dispatch from the frontier they release.
	plan         *execPlan
	nodes        []topo.NodeID    // ascending, distinct
	matches      []openflow.Match // distinct: the flow, and its tagged form for a two-phase job
	rollback     *rollbackSpec
	preConfirmed []bool

	// pending holds the installs the job confirmed that no journal
	// record carries yet: its next dispatched-batch record takes them,
	// its terminal record the rest. Only the job's own goroutine touches
	// it (the walk, then Engine.finish). A pointer, not a slice: the
	// field keeps a Job in its allocation size class.
	pending *confirmList

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
	// the recovered frontier instead of rolling back. Recovered is set
	// before the job is admitted, Adopted by Recover under mu before the
	// job launches; neither changes after.
	Recovered bool
	Adopted   bool

	mu       sync.Mutex
	state    JobState
	err      error
	failure  *FailureReport
	trace    []byte        // the one record of progress: encoded installs in confirmation order and tallies (see record)
	wake     chan struct{} // closed and dropped as trace grows or the job ends; nil while no reader waits
	started  time.Time     // set by Engine.begin, before any install: what installs' offsets count from
	finished time.Time
	done     chan struct{}
}

// NumInstalls returns the number of per-switch installs of the job's
// execution DAG.
func (j *Job) NumInstalls() int { return j.shape.installs }

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

// Installs returns the per-switch install trace recorded so far, in
// barrier-confirmation order: each entry names the dependency edge
// that released the install.
func (j *Job) Installs() []InstallTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]InstallTiming, 0, j.shape.installs)
	var rec record
	for off := 0; off < len(j.trace); {
		if off = rec.read(j.trace, off); rec.install {
			out = append(out, rec.InstallTiming)
		}
	}
	return out
}

// Messages returns the job's message-count breakdown: the total over
// all switches and a per-switch copy.
func (j *Job) Messages() (total MessageStats, perSwitch map[topo.NodeID]MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	counts, sum := j.messagesLocked()
	perSwitch = make(map[topo.NodeID]MessageStats, len(counts))
	for _, m := range counts {
		perSwitch[topo.NodeID(m.Switch)] = MessageStats{Ctrl: m.Ctrl, Peer: m.Peer}
	}
	return MessageStats{Ctrl: sum.Ctrl, Peer: sum.Peer}, perSwitch
}

// messagesLocked sums the trace's message tallies per switch, ascending
// by switch, and over all switches. Caller holds j.mu.
func (j *Job) messagesLocked() (out []api.MessageCount, total api.MessageCount) {
	out = make([]api.MessageCount, 0, j.shape.installs) // a switch per plan node at most
	var rec record
	for off := 0; off < len(j.trace); {
		if off = rec.read(j.trace, off); !rec.tally {
			continue
		}
		i, found := slices.BinarySearchFunc(out, uint64(rec.Node), func(m api.MessageCount, sw uint64) int { return cmp.Compare(m.Switch, sw) })
		if !found {
			out = slices.Insert(out, i, api.MessageCount{Switch: uint64(rec.Node)})
		}
		out[i].Ctrl, total.Ctrl = out[i].Ctrl+rec.ms.Ctrl, total.Ctrl+rec.ms.Ctrl
		out[i].Peer, total.Peer = out[i].Peer+rec.ms.Peer, total.Peer+rec.ms.Peer
	}
	return out, total
}

// TotalDuration returns the job's wall-clock time from first round
// start to last barrier (zero while unfinished).
func (j *Job) TotalDuration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.totalLocked()
}

func (j *Job) totalLocked() time.Duration {
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

// Cursor is one reader's place in a job's progress stream: the installs
// of the trace in confirmation order, each round right after the install
// that completed it and every earlier round, then the terminal event. It
// holds a position, never a copy — the job keeps nothing per reader.
type Cursor struct {
	job    *Job
	off    int         // trace bytes read
	left   []int       // per layer: installs not yet delivered
	first  []int       // per layer: offset of its first install read; shares left's array
	round  int         // rounds delivered
	ended  bool        // terminal event delivered
	rec    record      // the record last read
	timing RoundTiming // the round last delivered
}

// Subscribe returns a cursor at the start of the job's progress stream.
func (j *Job) Subscribe() *Cursor {
	d := len(j.shape.perLayer)
	scratch := make([]int, 2*d)
	copy(scratch, j.shape.perLayer)
	return &Cursor{job: j, left: scratch[:d], first: scratch[d:]}
}

// poll returns the stream's next event if the log already holds it;
// otherwise more closes when it will (nil past the terminal event).
func (c *Cursor) poll() (ev JobEvent, more <-chan struct{}, ok bool) {
	j := c.job
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev, ok = c.nextLocked(); ok || c.ended {
		return ev, nil, ok
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return ev, j.wake, false
}

// nextLocked is poll's step. Caller holds the job's mu.
func (c *Cursor) nextLocked() (JobEvent, bool) {
	j := c.job
	if c.ended {
		return JobEvent{}, false
	}
	if c.round < len(c.left) && c.left[c.round] == 0 {
		// The round's installs lie between its first and the cursor, so
		// every round reads its own stretch of the trace once.
		c.timing.aggregate(j.trace[c.first[c.round]:c.off], c.round, j.shape.perLayer[c.round])
		c.round++
		return JobEvent{Round: &c.timing, State: JobRunning}, true
	}
	for c.off < len(j.trace) {
		at := c.off
		if c.off = c.rec.read(j.trace, c.off); c.rec.install {
			l := c.rec.Layer
			if c.left[l] == j.shape.perLayer[l] {
				c.first[l] = at
			}
			c.left[l]--
			return JobEvent{Install: &c.rec.InstallTiming, State: JobRunning}, true
		}
	}
	if j.state == JobDone || j.state == JobFailed {
		c.ended = true
		return JobEvent{State: j.state, Err: j.err}, true
	}
	return JobEvent{}, false
}

// aggregate makes rt round r as its barrier reads: the size installs of
// layer r, read forward from log's start (a record boundary at or before
// the layer's first install), switches ascending, from the
// first start to the last finish, cleanup if all are. Switches' array is
// reused. Offset 0 is a real start (the job's first instant), so the
// first install found sets both ends.
func (rt *RoundTiming) aggregate(log []byte, r, size int) {
	*rt = RoundTiming{Round: r, Cleanup: true, Switches: slices.Grow(rt.Switches[:0], size)}
	var rec record
	for off := 0; len(rt.Switches) < size; {
		if off = rec.read(log, off); !rec.install || int(rec.Layer) != r {
			continue
		}
		first := len(rt.Switches) == 0
		rt.Switches = append(rt.Switches, rec.Node)
		rt.FlowMods += int(rec.FlowMods)
		rt.Cleanup = rt.Cleanup && rec.Cleanup
		if first || rec.Started < rt.Started {
			rt.Started = rec.Started
		}
		if first || rec.Finished > rt.Finished {
			rt.Finished = rec.Finished
		}
	}
	slices.Sort(rt.Switches)
}

// A trace record is a header byte and uvarints: a tally's switch,
// control and peer messages; an install's node, releasing node, start
// offset and duration (zig-zag, nanoseconds) and layer. An install's
// header packs its cleanup bit, its counted bit (the controller sent its
// FlowMods and a barrier and read the reply: FlowMods+2 control messages
// to the switch) and from bit 3 its FlowMods (0 to 31).
const (
	recTally byte = 1 << iota
	recCleanup
	recCounted
	recFlowMods
)

var errTrace = errors.New("malformed job trace") // no writer makes one

// record is one decoded trace record: an install fills InstallTiming, a
// tally only Node; tally says it adds ms to Node's message counts.
type record struct {
	InstallTiming
	install, tally bool
	ms             MessageStats
}

// read decodes the record at log[off:] into r and returns the offset past it.
func (r *record) read(log []byte, off int) int {
	d := wirefmt.NewDecoder(log[off:], errTrace)
	h := d.Byte()
	r.install, r.tally = h&recTally == 0, h&(recTally|recCounted) != 0
	if !r.install {
		r.Node, r.ms = topo.NodeID(d.Uvarint()), MessageStats{Ctrl: d.Int(), Peer: d.Int()}
		return off + d.Off()
	}
	r.Node, r.ReleasedBy = topo.NodeID(d.Uvarint()), topo.NodeID(d.Uvarint())
	r.Started = unzigzag(d.Uvarint())
	r.Finished, r.Layer = r.Started+unzigzag(d.Uvarint()), int32(d.Uvarint())
	r.FlowMods, r.Cleanup = int32(h/recFlowMods), h&recCleanup != 0
	r.ms = MessageStats{Ctrl: int(r.FlowMods) + 2}
	return off + d.Off()
}

func zigzag(d time.Duration) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) time.Duration { return time.Duration(u>>1) ^ -time.Duration(u&1) }

// logLocked appends the record h, vs, sizing the trace for the whole
// plan at its first. Caller holds j.mu.
func (j *Job) logLocked(h byte, vs ...uint64) {
	if j.trace == nil {
		j.trace = make([]byte, 0, 16*j.shape.installs) // an install takes about 12
	}
	j.trace = append(j.trace, h)
	for _, v := range vs {
		j.trace = binary.AppendUvarint(j.trace, v)
	}
}

// logInstallLocked appends one confirmed install (FlowMods below 32),
// counted if the controller confirmed it by its own barrier.
func (j *Job) logInstallLocked(it *InstallTiming, counted bool) {
	h := byte(it.FlowMods) * recFlowMods
	if it.Cleanup {
		h |= recCleanup
	}
	if counted {
		h |= recCounted
	}
	j.logLocked(h, uint64(it.Node), uint64(it.ReleasedBy), zigzag(it.Started), zigzag(it.Finished-it.Started), uint64(it.Layer))
}

// tally adds messages no install implies to switch n's counts: a
// rollback's undo, a decentralized completion report.
func (j *Job) tally(n topo.NodeID, ms MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.logLocked(recTally, uint64(n), uint64(ms.Ctrl), uint64(ms.Peer))
}

// wakeLocked tells waiting readers there is more. Caller holds j.mu.
func (j *Job) wakeLocked() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// footprint fills the job's conflict sets from its execution DAG: its
// switches, and the matches its rules program — the plan's flow, and
// its tagged form where a node prepares a tagged rule, so at most two.
func (j *Job) footprint() {
	j.nodes = make([]topo.NodeID, 0, len(j.plan.dag.Nodes))
	for i, nd := range j.plan.dag.Nodes {
		j.nodes = append(j.nodes, nd.Switch)
		if m := j.plan.rules[i].matchOf(j.plan.match); !slices.Contains(j.matches, m) {
			j.matches = append(j.matches, m)
		}
	}
	slices.Sort(j.nodes)
	j.nodes = slices.Compact(j.nodes)
}

// conflictsWith reports whether the two jobs may not execute
// concurrently: they touch a common switch or program a common flow.
func (j *Job) conflictsWith(other *Job) bool {
	if intersects(j.nodes, other.nodes, cmp.Compare[topo.NodeID]) {
		return true
	}
	for _, m := range j.matches {
		if slices.Contains(other.matches, m) {
			return true
		}
	}
	return false
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
