package controller

import (
	"context"
	"net"
	"slices"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// sendFlowMod writes fm to the switch outside any walk: no barrier, no
// ack.
func sendFlowMod(c *Controller, dpid uint64, fm *openflow.FlowMod) error {
	dp, err := c.datapath(dpid)
	if err != nil {
		return err
	}
	_, err = dp.conn.Send(fm)
	return err
}

// barrier walks the one switch without a FlowMod: it returns once the
// switch answered a barrier request, or ctx or RoundTimeout ran out.
func barrier(ctx context.Context, c *Controller, dpid uint64) error {
	return c.engine.walkFlat(ctx, []topo.NodeID{topo.NodeID(dpid)}, openflow.Match{}, []nodeRule{{kind: ruleBarrier}})
}

// submitTwoPhase builds and admits a two-phase job as POST /v1/updates
// does.
func submitTwoPhase(e *Engine, in *core.Instance, match openflow.Match, opts SubmitOptions) (*Job, error) {
	job, err := e.twoPhaseJob(in, match, opts)
	if err != nil {
		return nil, err
	}
	return e.enqueue(job)
}

// vlanMatch is the key of a two-phase update's tagged rules: nw_dst ip
// and dl_vlan vlan, both exact.
func vlanMatch(ip net.IP, vlan uint16) openflow.Match {
	m := openflow.ExactNWDst(ip)
	m.Wildcards &^= openflow.WildcardDLVLAN
	m.DLVLAN = vlan
	return m
}

// at returns the instant an offset of the job's log stands for.
func (j *Job) at(offset time.Duration) time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started.Add(offset)
}

// timings returns the rounds the job completed so far, read off its
// install log by a cursor.
func (j *Job) timings() []RoundTiming {
	out := make([]RoundTiming, 0, j.shape.depth)
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.Subscribe()
	for ev, ok := c.nextLocked(); ok; ev, ok = c.nextLocked() {
		if ev.Round != nil {
			out = append(out, *ev.Round)
			out[len(out)-1].Switches = slices.Clone(ev.Round.Switches)
		}
	}
	return out
}
