package controller

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"tsu/internal/core"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// ExecMode selects how a job's execution DAG is dispatched.
type ExecMode int

const (
	// ModeController (the default) keeps the controller in the loop for
	// every happens-before edge: FlowMods, a barrier per node, and a
	// release decision on each barrier reply. Every edge costs control-
	// channel round trips.
	ModeController ExecMode = iota

	// ModeDecentralized pushes the plan to every switch once and lets
	// the switches run the DAG themselves: a switch installs a
	// node when all of its in-edge acks have arrived and notifies its
	// DAG successors peer-to-peer (ez-Segway style). The controller
	// hears back exactly once per switch — the terminal completion
	// report.
	ModeDecentralized
)

func (m ExecMode) String() string {
	switch m {
	case ModeController:
		return "controller"
	case ModeDecentralized:
		return "decentralized"
	}
	return "unknown"
}

// ParseExecMode maps a mode name to its ExecMode. The empty string is
// the default (controller-driven).
func ParseExecMode(s string) (ExecMode, bool) {
	switch s {
	case "", "controller":
		return ModeController, true
	case "decentralized":
		return ModeDecentralized, true
	}
	return 0, false
}

// MessageStats counts the messages attributed to one switch during a
// job: Ctrl is controller↔switch traffic (FlowMods, barriers and
// replies, plan pushes, completion reports), Peer is direct
// switch↔switch traffic (dependency acks). The controller-driven mode
// has Peer == 0 by construction; the decentralized mode trades almost
// all Ctrl volume for Peer messages on short data-plane hops.
type MessageStats struct {
	Ctrl int
	Peer int
}

// switchMessages is one switch's tally in a job's message counts, kept
// at 16 bytes: a finished job holds one per switch it touched.
type switchMessages struct {
	sw         topo.NodeID
	ctrl, peer int32
}

// addMessages accumulates message counts for one switch. Safe for the
// dispatcher goroutine; readers go through Messages.
func (j *Job) addMessages(n topo.NodeID, ms MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, found := slices.BinarySearchFunc(j.msgs, n, func(m switchMessages, n topo.NodeID) int { return cmp.Compare(m.sw, n) })
	if !found {
		if j.msgs == nil {
			j.msgs = make([]switchMessages, 0, len(j.nodes))
		}
		j.msgs = slices.Insert(j.msgs, i, switchMessages{sw: n})
	}
	j.msgs[i].ctrl += int32(ms.Ctrl)
	j.msgs[i].peer += int32(ms.Peer)
}

// Messages returns the job's message-count breakdown: the total over
// all switches and a per-switch copy.
func (j *Job) Messages() (total MessageStats, perSwitch map[topo.NodeID]MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	perSwitch = make(map[topo.NodeID]MessageStats, len(j.msgs))
	for _, m := range j.msgs {
		perSwitch[m.sw] = MessageStats{Ctrl: int(m.ctrl), Peer: int(m.peer)}
		total.Ctrl += int(m.ctrl)
		total.Peer += int(m.peer)
	}
	return total, perSwitch
}

// confirmed appends plan node idx's confirmed install to the job's log
// (sized for the whole plan at once) and wakes the readers waiting for
// it: the caller supplies what it observed (the releasing predecessor,
// the FlowMod count, the instants the install started and finished),
// the plan the node's switch, layer and cleanup flag, and the job's
// start turns the instants into the log's offsets. Both dispatch paths
// end here, in whatever order they confirm, so job status, SSE events
// and round timings are mode-agnostic.
func (j *Job) confirmed(idx int, by topo.NodeID, flowMods int, started, finished time.Time) {
	install := InstallTiming{
		Node:       j.plan.sw(idx),
		ReleasedBy: by,
		Layer:      int32(j.plan.layers[idx]),
		FlowMods:   int32(flowMods),
		Cleanup:    j.plan.isCleanup(idx),
	}
	j.mu.Lock()
	install.Started, install.Finished = started.Sub(j.started), finished.Sub(j.started)
	if j.installs == nil {
		j.installs = make([]InstallTiming, 0, j.plan.len())
	}
	j.installs = append(j.installs, install)
	j.wakeLocked()
	j.mu.Unlock()
}

// executeDecentralized runs one job by delegation: push every switch
// the whole execution DAG (core.EncodePlan, once per job) and the
// FlowMods of the nodes it owns, then wait for one completion report
// per switch, whose plan agent derives its own nodes and edges from the
// DAG. The happens-before edges execute at the switches — each in-edge
// ack travels one data-plane hop instead of two control-channel round
// trips — so the controller's contribution to the critical path
// collapses to the initial push plus the final report.
//
// Reported installs enter the job's log as the controller-driven path's
// do: install events still carry the releasing predecessor (as observed
// by the installing switch) and rounds still complete in order.
func (e *Engine) executeDecentralized(ctx context.Context, job *Job) (*FailureReport, error) {
	plan := job.plan
	n := plan.len()
	enc := core.EncodePlan(plan.dag) // one encoding, shared by every push of the job

	reports := make(chan *planwire.Report, len(job.nodes))
	e.c.registerPlanReports(job.ID, reports)
	defer e.c.unregisterPlanReports(job.ID)

	// Every push is encoded before anything is journaled or sent, so an
	// encoding error leaves nothing on the wire.
	oldest := e.oldestLive()
	pushes := make([][]byte, len(job.nodes))
	for k, sw := range job.nodes { // the DAG's switches, ascending
		push := &planwire.Push{Job: job.ID, Oldest: oldest, Interval: job.Interval, Switch: sw}
		for i := range n {
			if plan.sw(i) == sw {
				push.Mods = append(push.Mods, plan.mods[i])
			}
		}
		var err error
		if pushes[k], err = planwire.EncodePush(push, enc); err != nil {
			return nil, fmt.Errorf("encoding push for %d: %w", sw, err)
		}
	}

	// The pushes hand the whole DAG to the switches at once:
	// every node is journaled dispatched in one write-ahead record
	// (before any push leaves), so a recovering controller knows the
	// entire plan may have taken effect and reconciles all of it against
	// switch state. The reported installs ride the terminal record.
	allNodes := make([]int, n)
	for i := range allNodes {
		allNodes[i] = i
	}
	if !e.journalWave(job, allNodes) {
		return nil, errJournalWriteAhead
	}

	// Node completion offsets in reports are relative to push receipt;
	// anchor them at the broadcast instant. The skew (one control-
	// channel delivery) is the same for every switch.
	broadcast := e.c.clock.Now()
	pushed := make([]bool, n)
	for k, sw := range job.nodes {
		if err := e.c.SendVendor(uint64(sw), pushes[k]); err != nil {
			err = fmt.Errorf("pushing plan to %d: %w", sw, err)
			if k == 0 {
				return nil, err // nothing went out
			}
			// A push that failed did not reach its switch whole; the
			// switches pushed to so far are running the plan, and
			// reconcile halts them before it reads what took effect.
			return e.abort(ctx, job, err, e.reconcile(ctx, job, pushed).undo)
		}
		for i := range n {
			pushed[i] = pushed[i] || plan.sw(i) == sw
		}
	}

	confirmed := make([]bool, n)
	for remaining := n; remaining > 0; {
		var r *planwire.Report
		select {
		case r = <-reports:
		case <-e.c.clock.After(e.c.cfg.RoundTimeout):
			// No switch made terminal progress for a full timeout: a peer
			// ack or a report is lost, or an install stalled. A report
			// says what completed, not what took effect: a switch that
			// crashed after installing never sends one. Ask the switches.
			return e.abort(ctx, job, stallError(job, confirmed, e.c.cfg.RoundTimeout),
				e.reconcile(ctx, job, pushed).undo)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// Two control messages per switch, total: the push and this
		// report. Peer acks are the switch's own.
		job.addMessages(r.Switch, MessageStats{Ctrl: 2, Peer: r.AcksSent})
		for i := range r.Nodes {
			nr := &r.Nodes[i]
			if nr.Index < 0 || nr.Index >= n || confirmed[nr.Index] || plan.sw(nr.Index) != r.Switch {
				return e.abort(ctx, job, fmt.Errorf("malformed completion report from switch %d (node %d)", r.Switch, nr.Index),
					e.reconcile(ctx, job, pushed).undo)
			}
			confirmed[nr.Index] = true
			e.noteConfirmed(job, nr.Index)
			remaining--
			job.confirmed(nr.Index, nr.ReleasedBy, plan.flowMods(nr.Index), broadcast.Add(nr.Started), broadcast.Add(nr.Finished))
		}
	}
	return nil, nil
}

// stallError builds the failure report for a stalled decentralized
// job: every unconfirmed node with the dependencies the controller has
// not seen confirmed either. A node whose dependencies all appear
// confirmed points at a lost in-edge ack (or an unreported producer
// switch) — exactly the fault-isolation hint an operator needs.
func stallError(job *Job, confirmed []bool, timeout time.Duration) error {
	var stuck []string
	missing := 0
	for i, nd := range job.plan.dag.Nodes {
		if confirmed[i] {
			continue
		}
		missing++
		if len(stuck) >= 8 {
			continue // cap the report; the count still tells the scale
		}
		var waits []string
		for _, d := range nd.Deps {
			if !confirmed[d] {
				waits = append(waits, fmt.Sprintf("node %d@switch %d", d, job.plan.sw(d)))
			}
		}
		detail := "all dependencies confirmed — in-edge ack or completion report lost?"
		if len(waits) > 0 {
			detail = "awaiting " + strings.Join(waits, ", ")
		}
		stuck = append(stuck, fmt.Sprintf("node %d@switch %d (%s)", i, nd.Switch, detail))
	}
	return fmt.Errorf("decentralized execution stalled: no completion report within %v; %d/%d installs unconfirmed: %s: %w",
		timeout, missing, job.plan.len(), strings.Join(stuck, "; "), context.DeadlineExceeded)
}
