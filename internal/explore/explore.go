// Package explore is the adversarial interleaving explorer: for a plan
// and instance it plays the paper's adversary — the asynchronous
// control channel that lets every issued-but-not-yet-confirmed FlowMod
// take effect in any order, constrained only by the plan's
// happens-before edges — and checks transient security (loop freedom,
// waypoint enforcement, blackhole freedom) after every single delivery
// event, reporting minimized counterexample event traces.
//
// # Order/state duality
//
// A property is violated iff some *prefix* of some delivery order
// produces a violating rule state, and the rule state after a prefix is
// exactly the set of nodes delivered so far — an order ideal of the
// plan's DAG (see core.Plan). Checking every ideal therefore covers
// every delivery order. The explorer has one engine and its work item
// is a *stage* (core.Plan.Stages): the plan is split at its series
// cuts, and the ideals are "all earlier stages plus an ideal of the
// stage in flight". For a layered plan the stages are the rounds:
// within one round barriers constrain nothing, the n! orders of a
// round collapse to its 2^n subsets, and the explorer walks those in
// binary-reflected Gray-code order; a stage with internal edges is
// walked by a DFS over include/exclude decisions (Plan.VisitIdeals).
// Either way successive states differ by exactly one switch, so each
// check is an incremental one-flip re-walk (core.Walker) instead of a
// fresh walk from the source, and the minimum violating ideal by
// ascending (size, mask) is reported — minimum-size, and therefore
// 1-minimal. A stage whose ideal space exceeds 1<<MaxExhaustive states
// falls back to sampling delivery orders: seeded uniform linear
// extensions plus heavy-tail-biased ones, where the ack-driven dispatch
// is simulated with per-node install latencies drawn from a bounded
// Pareto distribution (the PAM'15 rule-install stall model) and the
// order is completion time — the adversary the paper's measurements
// say hardware actually implements. A per-worker transposition table
// short-circuits states already checked by another order, prefix, or
// stage, and stages themselves fan out over Options.Workers with a
// deterministic merge. Rollback plans (core.Plan.Reverse) are explored
// over the shifted state space base∖ideal — the walker starts from the
// installed set and flips clear bits — so the same adversary that
// attacks a forward plan attacks its rollback.
//
// explore complements internal/verify: verify answers "is this plan
// safe?" as fast as possible (branching walk search, subset sampling);
// explore answers "show me the event trace that breaks it" — it
// produces ordered, minimized delivery traces suitable for replay,
// plus per-event coverage counters, and its timed mode replays a
// plan on a simclock.Sim under sampled latency distributions so a
// 10k-switch scenario runs in virtual time with a reproducible event
// count.
package explore

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// Options configures an exploration.
type Options struct {
	// Props is the property set checked after every event. Zero
	// selects the plan's own guarantees; for plans that guarantee
	// nothing (one-shot) it selects the instance's natural property
	// set (core.Instance.NaturalProps) — the explorer's purpose being
	// to show what the baseline breaks.
	Props core.Property

	// MaxExhaustive bounds the stages explored exhaustively: a stage
	// is enumerated when its ideal space fits 1<<MaxExhaustive states.
	// For an edge-free stage (a round) that is its size — n switches
	// have 2^n subsets, so rounds of up to MaxExhaustive switches are
	// enumerated; for a DAG stage it is the count of its order ideals,
	// which its edges keep below 2^n. Larger stages, and stages of
	// more than 64 nodes, are sampled. Default 18; capped at 20.
	MaxExhaustive int

	// Samples is the number of delivery orders drawn per sampled
	// stage. Default 256.
	Samples int

	// Seed pins the sampling RNG; exploration is deterministic in
	// (Seed, Options).
	Seed int64

	// PeerDelays arms the decentralized-execution adversary in the
	// sampled heavy-tail dispatch: every happens-before edge whose
	// endpoints live on different switches pays an additional
	// adversary-chosen peer-ack delay (bounded Pareto, like the install
	// stalls), so acks overtake each other and installs reorder beyond
	// what install latencies alone produce. The reachable state space
	// is unchanged — delayed acks only pick different linear extensions
	// of the same partial order — so exhaustive verdicts and
	// fingerprint state counts are identical with the adversary on or
	// off; only which sampled orders get replayed differs.
	PeerDelays bool

	// Workers bounds the stage-exploration worker pool. Stages are
	// independent work items (each stage's pre-state is a function of
	// the plan alone), so they fan out and merge back by index;
	// the report — including its Fingerprint — is identical for every
	// worker count. Zero selects runtime.GOMAXPROCS(0); 1 forces
	// serial execution.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustive <= 0 {
		o.MaxExhaustive = 18
	}
	o.MaxExhaustive = min(o.MaxExhaustive, 20)
	if o.Samples <= 0 {
		o.Samples = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
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

// Violation is a found counterexample: a minimized delivery trace
// whose replay (on top of the completed earlier stages) produces a
// rule state violating Violated.
type Violation struct {
	// Round is the stage that was in flight (its index in
	// core.Plan.Stages; the round, for a layered plan) — not
	// necessarily 0 for a sparse plan. Event.Round, in Trace, is the
	// node's layer instead.
	Round int
	// Violated is the property set broken by the minimized trace's
	// final state.
	Violated core.Property
	// Trace is the minimized delivery sequence, an order ideal of the
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
	// Exhaustive: every reachable intra-stage state was checked (the
	// verdict is a proof); otherwise Orders sampled orders were
	// replayed event by event.
	Exhaustive bool
	// States counts distinct rule states checked (exhaustive mode).
	States int
	// Orders counts delivery orders replayed (sampled mode).
	Orders int
	// Events counts per-event property checks performed in this stage.
	Events int
	// Violation is the minimized counterexample, nil when none found.
	Violation *Violation
}

// Report is the outcome of exploring a plan.
type Report struct {
	Algorithm  string
	Properties core.Property
	Rounds     []RoundReport

	// MemoHits counts state checks answered from the transposition
	// tables instead of recomputed. Verdicts are pure per state, so
	// hits never change any result — but the count depends on how
	// stages were partitioned across workers, so it is diagnostic
	// only and deliberately excluded from Fingerprint.
	MemoHits int64
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

// Events returns the total number of per-event property checks.
func (r *Report) Events() int {
	n := 0
	for _, rr := range r.Rounds {
		n += rr.Events
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
// counters and minimized traces — as one canonical string. Two
// explorations with equal fingerprints made identical decisions; the
// determinism tests compare these across runs.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s props=%s\n", r.Algorithm, r.Properties)
	for _, rr := range r.Rounds {
		fmt.Fprintf(&b, "round=%d size=%d exhaustive=%t states=%d orders=%d events=%d",
			rr.Round, rr.Size, rr.Exhaustive, rr.States, rr.Orders, rr.Events)
		if v := rr.Violation; v != nil {
			fmt.Fprintf(&b, " violation=%s trace=%s walk=%v", v.Violated, v.Trace, v.Walk)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) String() string {
	if r.OK() {
		mode := "sampled"
		if r.Exhaustive() {
			mode = "exhaustive"
		}
		return fmt.Sprintf("explore %s %s: ok (%s, %d rounds, %d events)",
			r.Algorithm, r.Properties, mode, len(r.Rounds), r.Events())
	}
	return fmt.Sprintf("explore %s %s: FAIL (%v)", r.Algorithm, r.Properties, r.FirstViolation())
}

// Plan explores every stage of p against the adversary and returns the
// per-stage verdicts. The plan must fit the instance.
//
// Stages fan out over Options.Workers goroutines: a stage's pre-state
// is determined by the plan alone, so stages are independent work
// items and their reports merge back by index — the report (and its
// Fingerprint) is bit-identical for every worker count.
func Plan(in *core.Instance, p *core.Plan, opts Options) (*Report, error) {
	if err := p.Validate(in); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	opts = opts.withDefaults()
	props := resolveProps(in, p.Guarantees, opts.Props)

	stages := planStages(in, p)
	rep := &Report{Algorithm: p.Algorithm, Properties: props, Rounds: make([]RoundReport, len(stages))}

	var memoHits, next atomic.Int64
	runWorker := func() {
		sc := newScratch(in)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(stages) {
				break
			}
			rep.Rounds[i] = sc.exploreStage(&stages[i], props, opts)
		}
		memoHits.Add(sc.mt.hits)
	}
	if workers := min(opts.Workers, len(stages)); workers <= 1 {
		runWorker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				runWorker()
			}()
		}
		wg.Wait()
	}
	rep.MemoHits = memoHits.Load()
	return rep, nil
}
