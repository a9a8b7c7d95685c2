package switchsim

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"tsu/internal/core"
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
// receives the job's plan once, installs each node this switch owns the
// moment all of that node's in-edge acks have arrived (the local
// verification of arXiv 1908.10086 — the in-edge predicate is all a
// switch ever checks), notifies DAG successors peer-to-peer, and sends
// the controller one terminal completion report.
//
// The agent is deliberately paranoid about the fabric's asynchrony:
// acks may arrive duplicated or reordered (idempotent via the job's set
// of acked edges), and may even arrive before the push itself when a
// fast peer outruns this switch's slower control channel (buffered in
// early and replayed on push receipt).
type planAgent struct {
	s *Switch

	mu    sync.Mutex
	jobs  map[int]*agentJob
	early map[int][]PeerAck // acks that raced ahead of their push
}

// agentJob is one pushed plan in execution.
type agentJob struct {
	push     *planwire.Push
	send     func(*planwire.Report) error
	received time.Time

	nodes []agentNode     // the nodes this switch owns, ascending by index
	acked map[[2]int]bool // {from, to} in-edges acked so far

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

// agentNode tracks one owned plan node; push.Mods[k] is nodes[k]'s.
type agentNode struct {
	index      int   // global plan index
	out        []int // plan nodes depending on it, ascending
	pending    int   // in-edges not yet acked: the node starts at zero
	releasedBy topo.NodeID
}

func newPlanAgent(s *Switch) *planAgent {
	return &planAgent{
		s:     s,
		jobs:  make(map[int]*agentJob),
		early: make(map[int][]PeerAck),
	}
}

// ownNodes derives a switch's share of a plan in one scan: the nodes it
// owns, ascending, each with its in-edge count (its Deps) and its
// out-edges. A dep precedes its node, so its entry exists by then.
func ownNodes(p *core.Plan, sw topo.NodeID) []agentNode {
	var nodes []agentNode
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			if p.Nodes[d].Switch == sw {
				k, _ := nodePos(nodes, d)
				nodes[k].out = append(nodes[k].out, i)
			}
		}
		if nd.Switch == sw {
			nodes = append(nodes, agentNode{index: i, pending: len(nd.Deps)})
		}
	}
	return nodes
}

// nodePos finds plan node idx among nodes.
func nodePos(nodes []agentNode, idx int) (int, bool) {
	return slices.BinarySearchFunc(nodes, idx, func(n agentNode, idx int) int { return cmp.Compare(n.index, idx) })
}

// start installs a freshly received push and begins executing it: root
// nodes (no in-edges) dispatch immediately, buffered early acks replay,
// and everything else waits for its peers. Duplicate pushes for a known
// job are ignored. send delivers the terminal report to the controller.
// Jobs below push.Oldest the controller no longer asks about: a
// finished or halted one, which has nothing left to run here, and the
// acks buffered for any of them, whose push never came, are forgotten.
func (a *planAgent) start(push *planwire.Push, send func(*planwire.Report) error) {
	a.mu.Lock()
	if _, dup := a.jobs[push.Job]; dup {
		a.mu.Unlock()
		return
	}
	for id, old := range a.jobs {
		if id < push.Oldest && (old.finished || old.halted) {
			delete(a.jobs, id)
		}
	}
	for id := range a.early {
		if id < push.Oldest {
			delete(a.early, id)
		}
	}
	j := &agentJob{
		push:     push,
		send:     send,
		received: a.s.clock.Now(),
		nodes:    ownNodes(push.Plan, push.Switch),
		acked:    make(map[[2]int]bool),
	}
	a.jobs[push.Job] = j
	var starts []int
	for k := range j.nodes {
		if j.nodes[k].pending == 0 {
			j.running.Add(1)
			starts = append(starts, k)
		}
	}
	// Replay acks that beat the push here.
	for _, ack := range a.early[push.Job] {
		if k := a.applyAckLocked(j, ack); k >= 0 {
			starts = append(starts, k)
		}
	}
	delete(a.early, push.Job)
	a.mu.Unlock()
	for _, k := range starts {
		go a.install(j, k)
	}
}

// deliver hands one peer ack to the agent. Unknown jobs buffer the ack
// — the push may still be in flight on the control channel.
func (a *planAgent) deliver(ack PeerAck) {
	a.mu.Lock()
	j, ok := a.jobs[ack.Job]
	if !ok {
		a.early[ack.Job] = append(a.early[ack.Job], ack)
		a.mu.Unlock()
		return
	}
	k := a.applyAckLocked(j, ack)
	a.mu.Unlock()
	if k >= 0 {
		go a.install(j, k)
	}
}

// applyAckLocked records one ack and returns the position of the node
// it released (its last in-edge acked), or -1. Duplicates, acks of no
// owned node's in-edge and acks for a halted job are absorbed.
func (a *planAgent) applyAckLocked(j *agentJob, ack PeerAck) int {
	k, owned := nodePos(j.nodes, ack.ToNode)
	if !owned || j.halted {
		return -1
	}
	if _, in := slices.BinarySearch(j.push.Plan.Nodes[ack.ToNode].Deps, ack.FromNode); !in {
		return -1
	}
	edge := [2]int{ack.FromNode, ack.ToNode}
	if j.acked[edge] {
		j.dups++
		return -1
	}
	j.acked[edge] = true
	j.acksRecv++
	nd := &j.nodes[k]
	nd.pending--
	if nd.pending == 0 {
		nd.releasedBy = ack.From
		j.running.Add(1)
		return k
	}
	return -1
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
// node's FlowMod against the live table (paying the configured install
// latency), then the out-edge acks, and — when it was the switch's
// last node — the completion report.
func (a *planAgent) install(j *agentJob, k int) {
	defer j.running.Done()
	plan := j.push.Plan
	nd := &j.nodes[k] // index and out are fixed once the job starts
	if j.push.Interval > 0 && len(plan.Nodes[nd.index].Deps) > 0 {
		a.s.clock.Sleep(j.push.Interval)
	}
	started := a.s.clock.Now()
	a.s.src.Sleep(a.s.cfg.InstallLatency)
	if oferr := a.s.table.Apply(j.push.Mods[k]); oferr != nil {
		// A rejected FlowMod stalls the node (and with it every
		// dependent): the controller's progress timeout surfaces it.
		a.s.logger.Warn("plan install rejected", "job", j.push.Job, "node", nd.index, "err", oferr.Error())
		return
	}
	if a.s.crashIfDue(a.s.flowModsApplied.Add(1)) {
		// The process died mid-node: no acks, no report. The
		// controller hears silence and must time the job out.
		a.s.dropConnection()
		return
	}
	finished := a.s.clock.Now()

	// Draw each out-edge ack's fate exactly once, up front: the sends
	// count (taken under the lock for the report) and the delivery loop
	// (outside it) must agree on what was injected.
	fates := make([]netem.FaultDecision, len(nd.out))
	for i, succ := range nd.out {
		if plan.Nodes[succ].Switch == a.s.cfg.Node {
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
	j.done++
	j.reports = append(j.reports, planwire.NodeReport{
		Index:      nd.index,
		ReleasedBy: nd.releasedBy,
		Started:    started.Sub(j.received),
		Finished:   finished.Sub(j.received),
	})
	// Count peer sends under the lock so the report is consistent.
	sends := 0
	for i, succ := range nd.out {
		if plan.Nodes[succ].Switch == a.s.cfg.Node {
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

	for i, succ := range nd.out {
		ack := PeerAck{Job: j.push.Job, From: a.s.cfg.Node, FromNode: nd.index, ToNode: succ}
		to := plan.Nodes[succ].Switch
		if to == a.s.cfg.Node {
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
		a.s.fabric.deliverPeerAck(a.s, to, ack, extra)
		if a.s.cfg.Faults.DuplicatePeerAcks || fates[i].Dup {
			a.s.fabric.deliverPeerAck(a.s, to, ack, extra+fates[i].Delay)
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
