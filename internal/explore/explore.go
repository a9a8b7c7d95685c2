// Package explore is the adversarial interleaving explorer: for a plan
// and instance it plays the paper's adversary — the asynchronous
// control channel that lets every issued-but-not-yet-confirmed FlowMod
// take effect in any order, constrained only by the plan's
// happens-before edges — and reports, per stage, a minimal
// counterexample as a delivery event trace.
//
// # Order/state duality
//
// A property is violated iff some *prefix* of some delivery order
// produces a violating rule state, and the rule state after a prefix is
// exactly the set of nodes delivered so far — an order ideal of the
// plan's DAG (see core.Plan). Checking every ideal therefore covers
// every delivery order, and a violating ideal, delivered in node
// order, is a violating delivery trace.
//
// The explorer decides nothing itself: Plan is one call into
// internal/verify's stage engine (verify.Traces), the exact search
// that decides /v1/verify (core.RoundChecker.Decide) with each stage
// granted 1<<MaxExhaustive branch points. A violating stage's witness
// is shrunk to a minimal violating ideal; a stage the search cannot
// finish within its budget is reported inexact, as /v1/verify reports
// it. This package renders the engine's verdicts as event traces
// tagged with each node's layer, and adds the timed mode (Timed),
// which replays a plan on a simclock.Sim under sampled latency
// distributions so a 10k-switch scenario runs in virtual time with a
// reproducible event count. Rollback plans (core.Plan.Reverse) are
// explored over the shifted state space base∖ideal, so the same
// adversary that attacks a forward plan attacks its rollback.
package explore

import (
	"fmt"
	"strings"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// Options configures an exploration.
type Options struct {
	// Props is the property set checked after every event. Zero
	// selects the plan's own guarantees; for plans that guarantee
	// nothing (one-shot) it selects the instance's natural property
	// set (core.Instance.NaturalProps) — the explorer's purpose being
	// to show what the baseline breaks.
	Props core.Property

	// MaxExhaustive bounds the search of one stage to
	// 1<<MaxExhaustive branch points. Branch points never outnumber a
	// stage's order ideals, so a stage with at most that many ideals —
	// a round of up to MaxExhaustive switches — is always decided.
	// Default 18; capped at 20.
	MaxExhaustive int

	// Seed has no effect: exploration draws no random numbers. It
	// stays while bench/ sets it (ROADMAP item 1 drops that use, item
	// 12 deletes the field).
	Seed int64

	// Workers bounds the engine's worker pool (verify.Options.Workers);
	// the report — including its Fingerprint — is identical for every
	// worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 18
	}
	o.MaxExhaustive = min(o.MaxExhaustive, 20)
	return o
}

// engine is the verify.Options the explorer runs with.
func (o Options) engine() verify.Options {
	return verify.Options{Budget: 1 << o.MaxExhaustive, Workers: o.Workers}
}

// resolveProps resolves the checked property set: explicit props, then
// the plan's guarantees, then the instance's natural property set (see
// Options.Props).
func resolveProps(in *core.Instance, guarantees, props core.Property) core.Property {
	if props != 0 {
		return props
	}
	if guarantees != 0 {
		return guarantees
	}
	return in.NaturalProps()
}

// Event is one FlowMod taking effect: switch Switch's rule flips (old
// to new; back, in a rollback), and Round is the node's layer in the
// plan — for a layered plan its round.
type Event struct {
	Round  int
	Switch topo.NodeID
}

// Trace is an ordered sequence of delivery events.
type Trace []Event

// Switches lists the trace's switches in delivery order.
func (t Trace) Switches() []topo.NodeID {
	out := make([]topo.NodeID, len(t))
	for i, e := range t {
		out[i] = e.Switch
	}
	return out
}

func (t Trace) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range t {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "r%d:%d", e.Round, e.Switch)
	}
	b.WriteByte(']')
	return b.String()
}

// Violation is a found counterexample: a minimal delivery trace
// whose replay (on top of the completed earlier stages) produces a
// rule state violating Violated.
type Violation struct {
	// Round is the stage that was in flight (its index in
	// core.Plan.Stages; the round, for a layered plan) — not
	// necessarily 0 for a sparse plan. Event.Round, in Trace, is the
	// node's layer instead.
	Round int
	// Violated is the property set broken by the trace's final state.
	Violated core.Property
	// Trace is the minimal delivery sequence, an order ideal of the
	// stage: replaying exactly these events after stages < Round still
	// violates, and dropping any single event that no other depends on
	// does not (1-minimality over reachable states).
	Trace Trace
	// Walk is the offending forwarding walk in the violating state.
	Walk topo.Path
	// Updated lists the violating state's in-flight switches
	// (ascending) — the set view of Trace.
	Updated []topo.NodeID
}

func (v *Violation) String() string {
	return fmt.Sprintf("violation{round %d, %s, trace %s, walk %v}", v.Round, v.Violated, v.Trace, v.Walk)
}

// RoundReport is the exploration verdict for one stage — one round of
// a layered plan.
type RoundReport struct {
	Round int // the stage's index in Plan.Stages
	Size  int // nodes in the stage
	// Exhaustive: the search decided every reachable intra-stage
	// state (the verdict is a proof); otherwise it ran out of its
	// 1<<MaxExhaustive branch points.
	Exhaustive bool
	// BranchPoints counts the in-flight switches the search branched
	// on in this stage.
	BranchPoints int
	// Violation is the minimal counterexample, nil when none found.
	Violation *Violation
}

// Report is the outcome of exploring a plan.
type Report struct {
	Algorithm  string
	Properties core.Property
	Rounds     []RoundReport
}

// OK reports whether no interleaving violated the checked properties.
func (r *Report) OK() bool {
	for _, rr := range r.Rounds {
		if rr.Violation != nil {
			return false
		}
	}
	return true
}

// Exhaustive reports whether every stage was explored exhaustively.
func (r *Report) Exhaustive() bool {
	for _, rr := range r.Rounds {
		if !rr.Exhaustive {
			return false
		}
	}
	return true
}

// BranchPoints returns the branch points spent over every stage.
func (r *Report) BranchPoints() int {
	n := 0
	for _, rr := range r.Rounds {
		n += rr.BranchPoints
	}
	return n
}

// FirstViolation returns the earliest stage's counterexample, or nil.
func (r *Report) FirstViolation() *Violation {
	for _, rr := range r.Rounds {
		if rr.Violation != nil {
			return rr.Violation
		}
	}
	return nil
}

// Fingerprint renders the full verdict — per-stage mode, coverage
// counter and minimal traces — as one canonical string. Two
// explorations with equal fingerprints made identical decisions; the
// determinism tests compare these across runs.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s props=%s\n", r.Algorithm, r.Properties)
	for _, rr := range r.Rounds {
		fmt.Fprintf(&b, "round=%d size=%d exhaustive=%t branch_points=%d",
			rr.Round, rr.Size, rr.Exhaustive, rr.BranchPoints)
		if v := rr.Violation; v != nil {
			fmt.Fprintf(&b, " violation=%s trace=%s walk=%v", v.Violated, v.Trace, v.Walk)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) String() string {
	if r.OK() {
		mode := "inexact"
		if r.Exhaustive() {
			mode = "exhaustive"
		}
		return fmt.Sprintf("explore %s %s: ok (%s, %d rounds, %d branch points)",
			r.Algorithm, r.Properties, mode, len(r.Rounds), r.BranchPoints())
	}
	return fmt.Sprintf("explore %s %s: FAIL (%v)", r.Algorithm, r.Properties, r.FirstViolation())
}

// Plan explores every stage of p against the adversary and returns the
// per-stage verdicts — verify.Traces, rendered as delivery traces. The
// plan must fit the instance. The report (and its Fingerprint) is
// bit-identical for every worker count.
func Plan(in *core.Instance, p *core.Plan, opts Options) (*Report, error) {
	if err := p.Validate(in); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	opts = opts.withDefaults()
	props := resolveProps(in, p.Guarantees, opts.Props)
	vr := verify.Traces(in, p, props, opts.engine())
	rep := &Report{Algorithm: p.Algorithm, Properties: props, Rounds: make([]RoundReport, len(vr.Rounds))}
	layers := p.NodeLayers()
	for k, rr := range vr.Rounds {
		rep.Rounds[k] = roundReport(in, p, layers, rr)
	}
	return rep, nil
}

// roundReport renders the engine's verdict on one stage of p.
func roundReport(in *core.Instance, p *core.Plan, layers []int, rr verify.RoundResult) RoundReport {
	return RoundReport{
		Round:        rr.Round,
		Size:         rr.Size,
		Exhaustive:   rr.Exact,
		BranchPoints: rr.BranchPoints,
		Violation:    violation(in, p, layers, rr.Round, rr.First, rr.Trace, rr.Violation),
	}
}

// violation renders a counterexample of the stage that starts at node
// first of p — trace lists stage node indices in node order — with
// each event tagged with its node's layer; nil when cex is.
func violation(in *core.Instance, p *core.Plan, layers []int, round, first int, trace []int, cex *core.CounterExample) *Violation {
	if cex == nil {
		return nil
	}
	v := &Violation{Round: round, Violated: cex.Violated, Trace: make(Trace, len(trace)), Walk: cex.Walk}
	for k, i := range trace {
		v.Trace[k] = Event{Round: layers[first+i], Switch: p.Nodes[first+i].Switch}
	}
	v.Updated = in.StateNodes(in.StateOf(v.Trace.Switches()...))
	return v
}
