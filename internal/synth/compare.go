package synth

import (
	"fmt"
	"strings"

	"tsu/internal/core"
)

// PlanMetrics is the cost profile of one execution plan under both
// dispatch modes: Ctrl counts controller-mode control-channel messages
// (FlowMod + barrier request + barrier reply per install, matching the
// engine's accounting), Peer counts decentralized-mode peer acks (one
// per happens-before edge whose endpoints are different switches; the
// control channel then costs a flat push + report per switch either
// way, so Peer is where plans differ).
type PlanMetrics struct {
	Nodes        int
	Edges        int
	Depth        int
	Width        int
	CriticalPath int
	Ctrl         int
	Peer         int
}

// MetricsOf profiles a plan.
func MetricsOf(p *core.Plan) PlanMetrics {
	m := PlanMetrics{
		Nodes:        p.NumNodes(),
		Edges:        p.NumEdges(),
		Depth:        p.Depth(),
		Width:        p.Width(),
		CriticalPath: p.CriticalPath(),
		Ctrl:         3 * p.NumNodes(),
	}
	for _, nd := range p.Nodes {
		for _, d := range nd.Deps {
			if p.Nodes[d].Switch != nd.Switch {
				m.Peer++
			}
		}
	}
	return m
}

// GapRow quantifies one heuristic's optimality gap against the
// synthesized plan for the same guarantees: every Gap field is
// heuristic-minus-synth, so positive numbers are what the heuristic
// overpays. The portfolio construction of Plan makes DepthGap ≥ 0.
type GapRow struct {
	Algorithm   string
	Guarantees  core.Property
	Heuristic   PlanMetrics
	Synth       PlanMetrics
	DepthGap    int
	EdgeGap     int
	CriticalGap int
	CtrlGap     int
	PeerGap     int
	SynthSource string // Transcript.Source of the synthesized plan
	SynthExact  bool
	SynthIters  int
}

// CompareReport is the per-scheduler optimality-gap table for one
// instance.
type CompareReport struct {
	Instance string
	Rows     []GapRow
}

// Compare synthesizes, for each registered heuristic scheduler that
// applies to the instance and guarantees a non-empty property set, a
// plan targeting exactly that scheduler's guarantees (synthesis runs
// once per distinct property set), and tabulates the heuristic's gaps
// against it. The heuristic side is core.SparsePlan of the scheduler's
// plan. Schedulers that fail to plan, and the guarantee-free one-shot
// baseline, are skipped.
func Compare(in *core.Instance, opts Options) (*CompareReport, error) {
	rep := &CompareReport{Instance: in.String()}
	type synthResult struct {
		plan *core.Plan
		tr   *Transcript
	}
	cache := make(map[core.Property]synthResult)
	for _, name := range core.Names() {
		if name == core.AlgoSynth {
			continue
		}
		sch, err := core.Lookup(name)
		if err != nil || !sch.Applicable(in) {
			continue
		}
		hp, err := sch.Plan(in, 0)
		if err != nil || hp.Guarantees == 0 {
			continue
		}
		props := hp.Guarantees
		hp = core.SparsePlan(in, hp)
		res, ok := cache[props]
		if !ok {
			plan, tr, err := Plan(in, props, opts)
			if err != nil {
				return nil, fmt.Errorf("synth: comparing against %s: %w", name, err)
			}
			res = synthResult{plan: plan, tr: tr}
			cache[props] = res
		}
		hm, sm := MetricsOf(hp), MetricsOf(res.plan)
		rep.Rows = append(rep.Rows, GapRow{
			Algorithm:   name,
			Guarantees:  props,
			Heuristic:   hm,
			Synth:       sm,
			DepthGap:    hm.Depth - sm.Depth,
			EdgeGap:     hm.Edges - sm.Edges,
			CriticalGap: hm.CriticalPath - sm.CriticalPath,
			CtrlGap:     hm.Ctrl - sm.Ctrl,
			PeerGap:     hm.Peer - sm.Peer,
			SynthSource: res.tr.Source,
			SynthExact:  res.tr.Exact,
			SynthIters:  res.tr.Iters,
		})
	}
	return rep, nil
}

// Table renders the report as a fixed-width table.
func (r *CompareReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimality gaps vs synthesized plan — %s\n", r.Instance)
	fmt.Fprintf(&b, "%-11s %-24s %6s %6s %6s %6s %6s | %6s %6s %6s %6s %6s | %s\n",
		"algorithm", "guarantees", "depth", "edges", "crit", "ctrl", "peer",
		"Δdepth", "Δedges", "Δcrit", "Δctrl", "Δpeer", "synth")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %-24s %6d %6d %6d %6d %6d | %6d %6d %6d %6d %6d | %s iters=%d exact=%t\n",
			row.Algorithm, row.Guarantees.String(),
			row.Heuristic.Depth, row.Heuristic.Edges, row.Heuristic.CriticalPath, row.Heuristic.Ctrl, row.Heuristic.Peer,
			row.DepthGap, row.EdgeGap, row.CriticalGap, row.CtrlGap, row.PeerGap,
			row.SynthSource, row.SynthIters, row.SynthExact)
	}
	return b.String()
}
