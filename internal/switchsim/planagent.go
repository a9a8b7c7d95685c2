package switchsim

import (
	"sort"
	"sync"
	"time"

	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// PeerAck is one switch-to-switch dependency notification of
// decentralized plan execution: the switch From confirms that plan
// node FromNode is installed, releasing one in-edge of node ToNode at
// the receiving switch. Acks ride the fabric directly between switches
// — the controller never sees them.
type PeerAck struct {
	Job      int
	From     topo.NodeID
	FromNode int
	ToNode   int
}

// planAgent is the switch-local executor of decentralized plans: it
// receives the switch's partition once, installs each owned node the
// moment all of that node's in-edge acks have arrived (the local
// verification of arXiv 1908.10086 — the in-edge predicate is all a
// switch ever checks), notifies DAG successors peer-to-peer, and sends
// the controller one terminal completion report.
//
// The agent is deliberately paranoid about the fabric's asynchrony:
// acks may arrive duplicated or reordered (idempotent via per-node
// seen sets), and may even arrive before the partition itself when a
// fast peer outruns this switch's slower control channel (buffered in
// early and replayed on partition receipt).
type planAgent struct {
	s *Switch

	mu    sync.Mutex
	jobs  map[int]*agentJob
	early map[int][]PeerAck // acks that raced ahead of their partition
}

// agentJob is one partition in execution.
type agentJob struct {
	push     *planwire.Push
	send     func(*planwire.Report) error
	received time.Time

	nodes []agentNode
	byIdx map[int]int // global plan index -> position in nodes

	acksSent, acksRecv, dups int
	done                     int
	reports                  []planwire.NodeReport
	finished                 bool

	// halted is set by a StateQuery for the job: no node of it starts
	// any more. running counts released nodes whose install has not
	// finished; the query's answer waits for it to drain.
	halted  bool
	running sync.WaitGroup
}

// agentNode tracks one owned plan node.
type agentNode struct {
	pos        int          // position in agentJob.nodes / push.Part.Nodes
	pending    map[int]bool // in-edge producer indices still unacked
	seen       map[int]bool // producer indices already counted (idempotence)
	releasedBy topo.NodeID
	started    bool
}

func newPlanAgent(s *Switch) *planAgent {
	return &planAgent{
		s:     s,
		jobs:  make(map[int]*agentJob),
		early: make(map[int][]PeerAck),
	}
}

// start installs a freshly received partition and begins executing it:
// root nodes (no in-edges) dispatch immediately, buffered early acks
// replay, and everything else waits for its peers. Duplicate pushes
// for a known job are ignored. send delivers the terminal report to
// the controller.
func (a *planAgent) start(push *planwire.Push, send func(*planwire.Report) error) {
	a.mu.Lock()
	if _, dup := a.jobs[push.Job]; dup {
		a.mu.Unlock()
		return
	}
	j := &agentJob{
		push:     push,
		send:     send,
		received: a.s.clock.Now(),
		nodes:    make([]agentNode, len(push.Part.Nodes)),
		byIdx:    make(map[int]int, len(push.Part.Nodes)),
	}
	for i, pn := range push.Part.Nodes {
		nd := agentNode{
			pos:     i,
			pending: make(map[int]bool, len(pn.InEdges)),
			seen:    make(map[int]bool, len(pn.InEdges)),
		}
		for _, e := range pn.InEdges {
			nd.pending[e.Index] = true
		}
		j.nodes[i] = nd
		j.byIdx[pn.Index] = i
	}
	a.jobs[push.Job] = j
	var starts []int
	for i := range j.nodes {
		if len(j.nodes[i].pending) == 0 {
			j.nodes[i].started = true
			j.running.Add(1)
			starts = append(starts, i)
		}
	}
	// Replay acks that beat the partition here.
	for _, ack := range a.early[push.Job] {
		if nd := a.applyAckLocked(j, ack); nd != nil {
			starts = append(starts, nd.pos)
		}
	}
	delete(a.early, push.Job)
	// The partition itself counts as an empty job: report immediately.
	reportNow := len(j.nodes) == 0
	if reportNow {
		j.finished = true
	}
	a.mu.Unlock()
	for _, pos := range starts {
		go a.install(j, pos)
	}
	if reportNow {
		a.report(j)
	}
}

// deliver hands one peer ack to the agent. Unknown jobs buffer the ack
// — the partition may still be in flight on the control channel.
func (a *planAgent) deliver(ack PeerAck) {
	a.mu.Lock()
	j, ok := a.jobs[ack.Job]
	if !ok {
		a.early[ack.Job] = append(a.early[ack.Job], ack)
		a.mu.Unlock()
		return
	}
	nd := a.applyAckLocked(j, ack)
	a.mu.Unlock()
	if nd != nil {
		go a.install(j, nd.pos)
	}
}

// applyAckLocked records one ack and returns the node it released (its
// last in-edge confirmed), or nil. Duplicates, acks for unknown edges
// and acks for a halted job are absorbed. Caller holds a.mu.
func (a *planAgent) applyAckLocked(j *agentJob, ack PeerAck) *agentNode {
	pos, ok := j.byIdx[ack.ToNode]
	if !ok || j.halted {
		return nil
	}
	nd := &j.nodes[pos]
	if !nd.pending[ack.FromNode] {
		if nd.seen[ack.FromNode] {
			j.dups++
		}
		return nil
	}
	delete(nd.pending, ack.FromNode)
	nd.seen[ack.FromNode] = true
	j.acksRecv++
	if len(nd.pending) == 0 && !nd.started {
		nd.started = true
		nd.releasedBy = ack.From
		j.running.Add(1)
		return nd
	}
	return nil
}

// reset drops every in-flight job and buffered ack — the agent state
// of a crashed switch process. Install goroutines still running for a
// dropped job detect the reset (their job is no longer the registered
// one) and go silent: no acks, no report.
func (a *planAgent) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jobs = make(map[int]*agentJob)
	a.early = make(map[int][]PeerAck)
}

// install executes one released node: optional interval pause, the
// node's FlowMods against the live table (each paying the configured
// install latency), then the out-edge acks, and — when it was the
// switch's last node — the completion report.
func (a *planAgent) install(j *agentJob, pos int) {
	defer j.running.Done()
	pn := j.push.Part.Nodes[pos]
	if j.push.Interval > 0 && len(pn.InEdges) > 0 {
		a.s.clock.Sleep(j.push.Interval)
	}
	started := a.s.clock.Now()
	flowMods := 0
	for _, fm := range j.push.Mods[pos] {
		a.s.src.Sleep(a.s.cfg.InstallLatency)
		if oferr := a.s.table.Apply(fm); oferr != nil {
			// A rejected FlowMod stalls the node (and with it every
			// dependent): the controller's progress timeout surfaces it.
			a.s.logger.Warn("plan install rejected", "job", j.push.Job, "node", pn.Index, "err", oferr.Error())
			return
		}
		applied := a.s.flowModsApplied.Add(1)
		flowMods++
		if a.s.crashIfDue(applied) {
			// The process died mid-node: no acks, no report. The
			// controller hears silence and must time the job out.
			a.s.dropConnection()
			return
		}
	}
	finished := a.s.clock.Now()

	// Draw each out-edge ack's fate exactly once, up front: the sends
	// count (taken under the lock for the report) and the delivery loop
	// (outside it) must agree on what was injected.
	fates := make([]netem.FaultDecision, len(pn.OutEdges))
	for i, e := range pn.OutEdges {
		if e.Switch == a.s.cfg.Node {
			continue // intra-switch release: not a fabric message
		}
		fates[i] = a.s.src.Fault(a.s.cfg.Faults.PeerAckFaults)
		if fates[i].Drop || fates[i].Dup || fates[i].Reordered {
			metrics.FaultsInjected.Inc()
		}
	}

	a.mu.Lock()
	if a.jobs[j.push.Job] != j {
		// The switch crashed (agent reset) while this node installed:
		// the revived process knows nothing of the job. Stay silent.
		a.mu.Unlock()
		return
	}
	nd := &j.nodes[pos]
	j.done++
	j.reports = append(j.reports, planwire.NodeReport{
		Index:      pn.Index,
		ReleasedBy: nd.releasedBy,
		FlowMods:   flowMods,
		Started:    started.Sub(j.received),
		Finished:   finished.Sub(j.received),
	})
	// Count peer sends under the lock so the report is consistent.
	sends := 0
	for i, e := range pn.OutEdges {
		if e.Switch == a.s.cfg.Node {
			continue // intra-switch release, no message
		}
		if a.s.cfg.Faults.DropPeerAcks || fates[i].Drop {
			continue // fault injection: install confirmed, ack lost
		}
		sends++
		if a.s.cfg.Faults.DuplicatePeerAcks || fates[i].Dup {
			sends++
		}
	}
	j.acksSent += sends
	last := j.done == len(j.nodes) && !j.finished
	if last {
		j.finished = true
	}
	a.mu.Unlock()

	for i, e := range pn.OutEdges {
		ack := PeerAck{Job: j.push.Job, From: a.s.cfg.Node, FromNode: pn.Index, ToNode: e.Index}
		if e.Switch == a.s.cfg.Node {
			// The successor lives on this very switch (e.g. its cleanup
			// node): release it locally, no fabric message involved.
			a.deliver(ack)
			continue
		}
		if a.s.cfg.Faults.DropPeerAcks || fates[i].Drop {
			continue
		}
		var extra time.Duration
		if fates[i].Reordered {
			extra = fates[i].Delay
		}
		a.s.fabric.deliverPeerAck(a.s, e.Switch, ack, extra)
		if a.s.cfg.Faults.DuplicatePeerAcks || fates[i].Dup {
			a.s.fabric.deliverPeerAck(a.s, e.Switch, ack, extra+fates[i].Delay)
		}
	}
	if last {
		a.report(j)
	}
}

// report sends the terminal completion report to the controller,
// nodes ordered by (finish offset, index) for determinism.
func (a *planAgent) report(j *agentJob) {
	a.mu.Lock()
	r := &planwire.Report{
		Job:      j.push.Job,
		Switch:   a.s.cfg.Node,
		AcksSent: j.acksSent,
		AcksRecv: j.acksRecv,
		DupAcks:  j.dups,
		Nodes:    append([]planwire.NodeReport(nil), j.reports...),
	}
	a.mu.Unlock()
	sort.Slice(r.Nodes, func(x, y int) bool {
		if r.Nodes[x].Finished != r.Nodes[y].Finished {
			return r.Nodes[x].Finished < r.Nodes[y].Finished
		}
		return r.Nodes[x].Index < r.Nodes[y].Index
	})
	if err := j.send(r); err != nil {
		a.s.logger.Warn("sending completion report failed", "job", j.push.Job, "err", err)
	}
}

// halt stops job at this switch — no node of it starts from now on, a
// late peer ack is absorbed — and returns once every install already
// released has finished. A job the agent does not know (never pushed
// here, or forgotten in a crash) has nothing to halt: a push travels the
// connection ahead of any query about it.
func (a *planAgent) halt(job int) {
	a.mu.Lock()
	j := a.jobs[job]
	if j != nil {
		j.halted = true
	}
	a.mu.Unlock()
	if j != nil {
		j.running.Wait()
	}
}

// doneNodes returns the global plan-node indices the agent has
// completed for a job, ascending — the agent's contribution to a
// StateReport. A job the agent has no memory of (never pushed, or
// wiped by a crash reset) yields nil.
func (a *planAgent) doneNodes(job int) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	j, ok := a.jobs[job]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(j.reports))
	for _, nr := range j.reports {
		out = append(out, nr.Index)
	}
	sort.Ints(out)
	return out
}

// PlanAckStats exposes the agent's per-job ack counters for a job —
// test instrumentation for the idempotence and fault paths.
func (s *Switch) PlanAckStats(job int) (sent, recv, dups int, ok bool) {
	s.agent.mu.Lock()
	defer s.agent.mu.Unlock()
	j, found := s.agent.jobs[job]
	if !found {
		return 0, 0, 0, false
	}
	return j.acksSent, j.acksRecv, j.dups, true
}
