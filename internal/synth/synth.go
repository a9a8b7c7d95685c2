// Package synth synthesizes update plans by counterexample-guided
// inductive synthesis (CEGIS) instead of running a fixed heuristic.
//
// The loop proposes the least-constrained candidate first — the
// empty-edge plan, installing every pending switch concurrently — and
// asks the adversary for a reason it is wrong: verify.PlanCounterexample
// returns a violating order ideal (a reachable transient state of the
// candidate DAG), exhaustively for small ideal spaces and via sampled,
// minimized linear extensions past the budget. The violating ideal S
// maps back to a small candidate set of blocking happens-before edges
// u→v with v ∈ S, u ∉ S (core.PlanDraft.BlockingEdges): adding one
// makes every ideal containing the violation unreachable, permanently.
// Candidates are scored by whether u's install repairs the violating
// state and by the depth the draft would grow to; the best edge is
// added and the loop repeats. The oracle escalates: a candidate that
// survives a quick sampled pass faces a full one, then a larger
// exhaustive budget under another seed, before it is accepted.
//
// Progress is monotone — each accepted counterexample adds a new edge
// and shrinks the reachable ideal space — so synthesis terminates
// within k·(k-1)/2 refinements for k pending switches; Options.Budget
// cuts it off earlier, returning *BudgetError with the best plan so
// far. Every refinement is recorded in a Transcript whose Fingerprint
// is deterministic in (instance, properties, Options.Seed).
//
// Plan is the portfolio entry point: it runs Synthesize and also every
// registered heuristic whose guarantees cover the requested
// properties, returning whichever plan wins on (depth, edges) — so the
// synthesized result is never worse than the heuristics, and the
// heuristics back it up when CEGIS hits a budget or a dead end. The
// package registers the portfolio as scheduler core.AlgoSynth, so the
// controller, /v1/updates, verify/explore, decentralized execution
// and the CLIs can select "synth" like any other algorithm.
package synth

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"tsu/internal/core"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// DefaultBudget is the refinement cap when Options.Budget is zero —
// far above what any instance in the repo needs (iterations track the
// pending count, not its square), while still bounding a runaway loop.
const DefaultBudget = 4096

// maxCandidates caps the blocking-edge candidates scored per refinement.
const maxCandidates = 256

// Options configures a synthesis run. The zero value is ready to use.
type Options struct {
	// Budget caps accepted counterexamples — equivalently, added
	// happens-before edges. Exceeding it returns *BudgetError carrying
	// the best plan so far. Zero selects DefaultBudget.
	Budget int

	// Seed derives every oracle seed. Synthesis is deterministic in
	// (instance, props, Options with the same Seed).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	return o
}

// ErrInfeasible marks instances where no dependency DAG can keep the
// requested properties: the empty and the fully-updated states are in
// every plan's ideal space, so a violation there is final.
var ErrInfeasible = errors.New("synth: no plan can satisfy the requested properties")

// ErrDeadEnd marks a refinement dead end: the current counterexample
// ideal admits no blocking edge without closing a cycle. The instance
// may still have safe plans; the portfolio falls back to heuristics.
var ErrDeadEnd = errors.New("synth: refinement dead end")

// BudgetError reports that Options.Budget refinements were accepted
// and the oracle still finds violations. Best is the latest candidate
// plan — structurally valid and executable, but not verified safe.
type BudgetError struct {
	Budget     int
	Best       *core.Plan
	Transcript *Transcript
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("synth: budget of %d refinements exceeded (best so far %s)", e.Budget, e.Best)
}

// Step records one CEGIS refinement.
type Step struct {
	Iter        int
	CexSize     int           // violating ideal size
	CexSwitches []topo.NodeID // violating ideal, ascending switch IDs
	Violated    core.Property
	OracleLevel string // "explore-quick", "explore-full" or "verify"
	OracleExact bool   // counterexample came from exhaustive enumeration
	Checked     int    // oracle state checks spent this iteration
	Candidates  int    // blocking edges considered
	EdgeFrom    topo.NodeID
	EdgeTo      topo.NodeID // chosen edge: EdgeFrom's barrier before EdgeTo's FlowMod
	Repaired    bool        // adding EdgeFrom to the ideal repairs its state
	DepthAfter  int
}

// Transcript is the full refinement history of one synthesis run.
type Transcript struct {
	Algorithm string
	Props     core.Property
	Seed      int64
	Steps     []Step
	Iters     int // == len(Steps): accepted counterexamples
	Checked   int // total oracle state checks, all iterations
	Exact     bool
	// Source names where the returned plan came from: "cegis",
	// "portfolio:<name>" (a heuristic beat the synthesized plan) or
	// "fallback:<name>" (synthesis failed; a heuristic covered it).
	Source  string
	Final   string        // final plan shape (core.Plan.String())
	Elapsed time.Duration // wall clock; excluded from Fingerprint
}

// Fingerprint returns a stable hash of everything decision-relevant in
// the transcript — every counterexample, every chosen edge, the final
// plan — excluding wall-clock times. Identical across runs with the
// same (instance, props, Options).
func (t *Transcript) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%s|%d|%d|%t", t.Props, t.Seed, t.Source, t.Final, t.Iters, t.Checked, t.Exact)
	for _, s := range t.Steps {
		fmt.Fprintf(h, "|%d:%d:%v:%s:%s:%t:%d:%d:%d->%d:%t:%d",
			s.Iter, s.CexSize, s.CexSwitches, s.Violated, s.OracleLevel, s.OracleExact,
			s.Checked, s.Candidates, s.EdgeFrom, s.EdgeTo, s.Repaired, s.DepthAfter)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders a one-line summary.
func (t *Transcript) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "synth %s: %d refinements, %d checks, %s", t.Props, t.Iters, t.Checked, t.Source)
	if t.Exact {
		b.WriteString(", exact")
	}
	if t.Final != "" {
		fmt.Fprintf(&b, " -> %s", t.Final)
	}
	return b.String()
}

// DefaultProps resolves the synthesis target: props itself when
// non-zero, else the instance's natural property set.
func DefaultProps(in *core.Instance, props core.Property) core.Property {
	if props != 0 {
		return props
	}
	return in.NaturalProps()
}

// Synthesize runs the CEGIS loop on its own (no heuristic portfolio)
// and returns the synthesized plan with its transcript. Errors:
// ErrInfeasible (wrapped) when no DAG can help, ErrDeadEnd (wrapped)
// when a counterexample admits no acyclic blocking edge, *BudgetError
// past Options.Budget. The transcript is returned in every case.
func Synthesize(in *core.Instance, props core.Property, opts Options) (*core.Plan, *Transcript, error) {
	opts = opts.withDefaults()
	props = DefaultProps(in, props)
	tr := &Transcript{Algorithm: core.AlgoSynth, Props: props, Seed: opts.Seed, Source: "cegis"}
	start := time.Now()
	defer func() { tr.Elapsed = time.Since(start) }()

	// The empty and fully-updated states are order ideals of every
	// plan; a violation there cannot be scheduled away.
	if v := in.CheckState(in.NewState(), props); v != 0 {
		return nil, tr, fmt.Errorf("initial state violates %s: %w", v, ErrInfeasible)
	}
	if v := in.CheckState(in.StateOf(in.Pending()...), props); v != 0 {
		return nil, tr, fmt.Errorf("final state violates %s: %w", v, ErrInfeasible)
	}

	draft := core.NewPlanDraft(in)
	st := in.NewState() // scratch for repair scoring
	for iter := 0; ; iter++ {
		plan := draft.Plan(core.AlgoSynth, props)
		o := oracle(in, plan, props, opts, iter)
		tr.Checked += o.checked
		if o.ideal == nil {
			tr.Exact = o.exact
			tr.Iters = len(tr.Steps)
			tr.Final = plan.String()
			return plan, tr, nil
		}
		if len(o.ideal) == 0 || len(o.ideal) == plan.NumNodes() {
			// Oracle re-derived an endpoint violation (possible only if
			// the pre-flight and the walker disagree — a bug trap).
			tr.Final = plan.String()
			return nil, tr, fmt.Errorf("endpoint state violates %s: %w", o.violated, ErrInfeasible)
		}
		if len(tr.Steps) >= opts.Budget {
			tr.Iters = len(tr.Steps)
			tr.Final = plan.String()
			return nil, tr, &BudgetError{Budget: opts.Budget, Best: plan, Transcript: tr}
		}

		// Map the ideal from plan-node indices to draft indices.
		ideal := make([]int, len(o.ideal))
		for i, pn := range o.ideal {
			ideal[i] = draft.IndexOf(plan.Nodes[pn].Switch)
		}
		cands := draft.BlockingEdges(ideal, maxCandidates)
		if len(cands) == 0 {
			tr.Final = plan.String()
			return nil, tr, fmt.Errorf("counterexample %v admits no acyclic blocking edge: %w",
				switchesOf(draft, ideal), ErrDeadEnd)
		}
		u, v, repaired := chooseEdge(in, draft, props, st, ideal, cands)
		if err := draft.AddEdge(u, v); err != nil {
			// Unreachable: BlockingEdges pre-filters cycles and duplicates.
			tr.Final = plan.String()
			return nil, tr, fmt.Errorf("synth: %w", err)
		}
		tr.Steps = append(tr.Steps, Step{
			Iter:        iter,
			CexSize:     len(ideal),
			CexSwitches: switchesOf(draft, ideal),
			Violated:    o.violated,
			OracleLevel: o.level,
			OracleExact: o.exact,
			Checked:     o.checked,
			Candidates:  len(cands),
			EdgeFrom:    draft.Switch(u),
			EdgeTo:      draft.Switch(v),
			Repaired:    repaired,
			DepthAfter:  draft.Depth(),
		})
	}
}

// oracleResult is one escalating counterexample search over a
// candidate plan. ideal == nil means clean; exact then marks a proof
// (exhaustive enumeration at some level). With a counterexample, exact
// marks a minimum violating ideal.
type oracleResult struct {
	ideal    []int // plan-node indices, ascending
	violated core.Property
	level    string
	exact    bool
	checked  int
}

// oracleLevels are the oracle's escalating efforts: a quick sampled
// pass, then the full one, then a larger exhaustive budget under
// another seed. Their names are part of every transcript's
// Fingerprint (Step.OracleLevel).
var oracleLevels = [...]struct {
	name            string
	budget, samples int
}{
	{"explore-quick", 1 << 18, 32},
	{"explore-full", 1 << 18, 256},
	{"verify", core.DefaultCheckBudget, 256},
}

// oracle asks verify.PlanCounterexample for a counterexample at each
// of oracleLevels in turn. A counterexample, or an exhaustive clean
// verdict, at any level short-circuits.
func oracle(in *core.Instance, p *core.Plan, props core.Property, opts Options, iter int) oracleResult {
	var r oracleResult
	base := opts.Seed ^ (int64(iter+1) * 0x5E3779B97F4A7C15)
	for k, l := range oracleLevels {
		rr := verify.PlanCounterexample(in, p, props, verify.Options{
			Budget:  l.budget,
			Samples: l.samples,
			Seed:    base + int64(k+1),
			Workers: 1,
		})
		r.level, r.exact = l.name, rr.Exact
		if rr.Violation != nil {
			r.ideal = append([]int{}, rr.Trace...)
			slices.Sort(r.ideal)
			r.violated, r.checked = rr.Violation.Violated, rr.Events
			return r
		}
		if rr.Exact {
			return r
		}
	}
	return r
}

// chooseEdge scores the blocking-edge candidates and returns the
// winner: prefer edges whose source install repairs the violating
// state (the ideal plus u checks clean), then the smallest resulting
// draft depth, then the candidates' deterministic order.
func chooseEdge(in *core.Instance, draft *core.PlanDraft, props core.Property, st core.State, ideal []int, cands [][2]int) (u, v int, repaired bool) {
	for i := range st {
		st[i] = 0
	}
	for _, d := range ideal {
		in.Mark(st, draft.Switch(d))
	}
	bestU, bestV := cands[0][0], cands[0][1]
	bestRepaired, bestDepth := false, 0
	for i, e := range cands {
		cu, cv := e[0], e[1]
		ui := in.NodeIndex(draft.Switch(cu))
		st.Set(ui)
		rep := in.CheckState(st, props) == 0
		st.Clear(ui)
		depth := draft.DepthWithEdge(cu, cv)
		if i == 0 || better(rep, depth, bestRepaired, bestDepth) {
			bestU, bestV, bestRepaired, bestDepth = cu, cv, rep, depth
		}
	}
	return bestU, bestV, bestRepaired
}

// better reports whether candidate (rep, depth) beats the incumbent.
func better(rep bool, depth int, bestRep bool, bestDepth int) bool {
	if rep != bestRep {
		return rep
	}
	return depth < bestDepth
}

func switchesOf(draft *core.PlanDraft, ideal []int) []topo.NodeID {
	out := make([]topo.NodeID, len(ideal))
	for i, d := range ideal {
		out[i] = draft.Switch(d)
	}
	return out
}

// Plan is the portfolio entry point: it synthesizes a plan for the
// requested properties and pits it against every registered heuristic
// whose guarantees cover them, returning the winner on (depth, edges)
// — ties go to the synthesized plan. The returned plan always carries
// Algorithm == core.AlgoSynth and Guarantees == the resolved property
// set; Transcript.Source records which construction won. A *BudgetError
// or dead end falls back to the best heuristic when one exists, and is
// returned unchanged otherwise.
func Plan(in *core.Instance, props core.Property, opts Options) (*core.Plan, *Transcript, error) {
	props = DefaultProps(in, props)
	plan, tr, err := Synthesize(in, props, opts)
	hname, hplan := bestHeuristic(in, props)
	switch {
	case err != nil && hplan == nil:
		return nil, tr, err
	case err != nil:
		tr.Source = "fallback:" + hname
		plan = hplan
	case hplan != nil && (hplan.Depth() < plan.Depth() ||
		(hplan.Depth() == plan.Depth() && hplan.NumEdges() < plan.NumEdges())):
		tr.Source = "portfolio:" + hname
		plan = hplan
	}
	adopted := *plan
	adopted.Algorithm = core.AlgoSynth
	adopted.Guarantees = props
	adopted.LoopFreedomCompromised = false
	tr.Final = adopted.String()
	return &adopted, tr, nil
}

// bestHeuristic returns the best registered non-synth plan whose
// guarantees cover props, preferring the sparse DAG core.SparsePlan
// derives from it; ("", nil) when no heuristic qualifies.
func bestHeuristic(in *core.Instance, props core.Property) (string, *core.Plan) {
	var bestName string
	var best *core.Plan
	for _, name := range core.Names() {
		if name == core.AlgoSynth {
			continue
		}
		sch, err := core.Lookup(name)
		if err != nil || !sch.Applicable(in) {
			continue
		}
		hp, err := sch.Plan(in, props)
		if err != nil || !hp.Guarantees.Has(props) {
			continue
		}
		hp = core.SparsePlan(in, hp)
		if best == nil || hp.Depth() < best.Depth() ||
			(hp.Depth() == best.Depth() && hp.NumEdges() < best.NumEdges()) {
			bestName, best = name, hp
		}
	}
	return bestName, best
}

// scheduler registers the portfolio under core.AlgoSynth.
type scheduler struct{}

// Plan implements core.Scheduler with the synthesized DAG.
func (scheduler) Plan(in *core.Instance, props core.Property) (*core.Plan, error) {
	p, _, err := Plan(in, props, Options{})
	return p, err
}

// Applicable implements core.Scheduler; synthesis applies everywhere.
func (scheduler) Applicable(*core.Instance) bool { return true }

func init() { core.Register(core.AlgoSynth, scheduler{}) }
