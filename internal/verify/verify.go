// Package verify decides transient consistency of update plans. It is
// the repository's one decider: internal/explore and internal/synth are
// views over its stage engine.
//
// A plan is transiently consistent for a property set when the property
// holds in every reachable intermediate state — every order ideal of
// its dependency DAG (see core.Plan). The engine's work item is a
// *stage* (Stages): the plan split at its series cuts, each block on
// top of every earlier one applied. Plan and Batch decide every stage,
// with edges or without, by one search: the core package's branching
// walk search (core.RoundChecker.Decide), which branches only at the
// in-flight switches a packet visits and only on choices that extend to
// an order ideal, with the double-edge cycle search for strong loop
// freedom. A stage the search cannot exhaust within Options.Budget
// branch points is reported inexact, never sampled.
//
// Callers that want coverage rather than a verdict take
// core.Walker.CheckStage instead — exhaustive enumeration within
// Options.Budget ideals, reporting the minimum violating ideal, and
// sampled linear extensions past it: Traces, the explorer's view, and
// PlanCounterexample, the synthesizer's oracle. Stages are independent
// work items (a stage's pre-state is determined by the plan alone, and
// its sampler's seed by Options.Seed and the stage's index), so they
// fan out over one worker pool sized by Options.Workers and merge
// deterministically: the report is identical for every worker count.
// Batch verifies many (instance, plan) pairs in one pool.
package verify

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tsu/internal/core"
)

// Options configures verification.
type Options struct {
	// Budget bounds the exact search of one stage: branch points of the
	// walk search for a verdict, order ideals enumerated for Traces and
	// PlanCounterexample. Zero selects core.DefaultCheckBudget.
	Budget int

	// Samples is the number of linear extensions (every prefix checked)
	// Traces and PlanCounterexample replay for a stage with more than
	// Budget ideals. Zero selects 1024.
	Samples int

	// Seed seeds the extension sampler. Verification is deterministic in
	// (Seed, Budget, Samples) and independent of Workers.
	Seed int64

	// Workers bounds the verification worker pool. Zero selects
	// runtime.GOMAXPROCS(0); 1 forces serial execution.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = core.DefaultCheckBudget
	}
	if o.Samples <= 0 {
		o.Samples = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RoundResult records the verdict for one stage — one round of a
// layered plan. Plan and Batch set Exact and Violation only; Traces and
// PlanCounterexample also the coverage counters and the violating
// state's Trace.
type RoundResult struct {
	Round int // the stage's index in Plan.Stages
	Size  int // nodes in the stage
	First int // index, in the whole plan, of the stage's first node
	core.StageVerdict
}

// Report is the outcome of verifying a plan.
type Report struct {
	Algorithm  string
	Properties core.Property
	Rounds     []RoundResult

	// FinalStateOK reports whether applying every node yields exactly
	// the new path as the forwarding walk — the old path for a rollback
	// plan.
	FinalStateOK bool

	// StructureErr holds the plan-structure failure, if any (nodes not
	// covering the pending set, dependencies out of order).
	StructureErr error
}

// OK reports whether the plan passed: valid structure, no violation in
// any stage, and a correct final state. An inexact stage without
// violations still counts as passing; check Exact per stage when
// exhaustiveness matters.
func (r *Report) OK() bool {
	if r.StructureErr != nil || !r.FinalStateOK {
		return false
	}
	for _, rr := range r.Rounds {
		if rr.Violation != nil {
			return false
		}
	}
	return true
}

// Exact reports whether every stage was verified exhaustively.
func (r *Report) Exact() bool {
	for _, rr := range r.Rounds {
		if !rr.Exact {
			return false
		}
	}
	return true
}

// FirstViolation returns the first recorded counterexample, or nil.
func (r *Report) FirstViolation() *core.CounterExample {
	for _, rr := range r.Rounds {
		if rr.Violation != nil {
			return rr.Violation
		}
	}
	return nil
}

// String renders a one-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify %s %s: ", r.Algorithm, r.Properties)
	switch {
	case r.StructureErr != nil:
		fmt.Fprintf(&b, "structure error: %v", r.StructureErr)
	case !r.OK():
		fmt.Fprintf(&b, "FAIL (%v)", r.FirstViolation())
	case r.Exact():
		fmt.Fprintf(&b, "ok (exact, %d rounds)", len(r.Rounds))
	default:
		fmt.Fprintf(&b, "ok (inexact, %d rounds)", len(r.Rounds))
	}
	return b.String()
}

// Task is one (instance, plan, properties) verification job for Batch.
type Task struct {
	Instance *core.Instance
	Plan     *core.Plan
	Props    core.Property
}

// Plan verifies a dependency plan against props in every reachable
// transient state — every order ideal of its DAG — fanning the
// per-stage work over Options.Workers. Rollback plans
// (core.Plan.Reverse) are the same work over a shifted state space: an
// ideal I of the rollback DAG is the set of switches already
// *uninstalled*, so the network state is base∖I where base marks every
// switch the plan covers; stages start from base with bits cleared,
// and the final state (everything undone) must recover the old path.
// Every stage is decided by core.RoundChecker.Decide; one it cannot
// exhaust within Options.Budget branch points is inexact.
func Plan(in *core.Instance, p *core.Plan, props core.Property, opts Options) *Report {
	return Batch([]Task{{Instance: in, Plan: p, Props: props}}, opts)[0]
}

// Traces is Plan for a caller that wants every stage's minimum
// violating delivery trace and coverage counters rather than the
// verdict: every stage is enumerated within Options.Budget ideals and
// sampled past it.
func Traces(in *core.Instance, p *core.Plan, props core.Property, opts Options) *Report {
	return run([]Task{{Instance: in, Plan: p, Props: props}}, opts, traceStage)[0]
}

// Batch verifies many plans in one worker pool. Per-stage work items
// from every task interleave freely across workers; results are merged
// back per task, so reports[i] corresponds to tasks[i] and is
// bit-identical to a serial run.
func Batch(tasks []Task, opts Options) []*Report {
	return run(tasks, opts, func(ws *worker, t Task, st Stage, _ int, opts Options) (v core.StageVerdict) {
		v.Violation, v.Exact = ws.rc.Decide(t.Instance, st.Pre, st.Plan, t.Props, opts.Budget)
		return v
	})
}

// traceStage is Traces' work on stage k of t.
func traceStage(ws *worker, t Task, st Stage, k int, opts Options) core.StageVerdict {
	return ws.walker.Bind(t.Instance).CheckStage(st.Pre, st.Plan, t.Props, opts.Budget, opts.Samples, stageSeed(opts.Seed, k))
}

// PlanCounterexample is the synthesizer's certificate oracle: it
// decides the plan's ideal space as one stage — never splitting it at
// its series cuts, so a violating state always comes back as an order
// ideal over plan-node indices — by exhaustive enumeration within
// Options.Budget ideals and by sampled linear extensions past it
// (core.Walker.CheckStage). The result's Trace is the violating ideal,
// Violation nil when none was found; a structurally invalid plan
// reports neither and is inexact (callers build plans via PlanDraft,
// which cannot emit one).
func PlanCounterexample(in *core.Instance, p *core.Plan, props core.Property, opts Options) RoundResult {
	opts = opts.withDefaults()
	rr := RoundResult{Size: len(p.Nodes)}
	if err := p.Validate(in); err != nil {
		return rr
	}
	var pre core.State // nil for forward plans: the empty ideal is the old state
	if p.Rollback {
		pre = p.BaseState(in)
	}
	rr.StageVerdict = in.NewWalker().CheckStage(pre, p, props, opts.Budget, opts.Samples, stageSeed(opts.Seed, 0))
	return rr
}

// Stage is the engine's work item: one block of a plan between two
// series cuts (core.Plan.Stages) and the state every earlier block
// leaves behind.
type Stage struct {
	Plan  *core.Plan // the block as a plan of its own, re-indexed from 0
	First int        // index, in the whole plan, of the block's first node
	Pre   core.State // every earlier block applied
}

// Stages materializes p's stages with their pre-states and returns the
// state after the last: every switch updated, or for a rollback plan
// every one undone.
func Stages(in *core.Instance, p *core.Plan) ([]Stage, core.State) {
	subs := p.Stages()
	state := in.NewState()
	if p.Rollback {
		state = p.BaseState(in)
	}
	w := len(state)
	pres := make(core.State, w*len(subs))
	stages := make([]Stage, len(subs))
	first := 0
	for k, sub := range subs {
		pre := pres[k*w : (k+1)*w : (k+1)*w]
		copy(pre, state)
		stages[k] = Stage{Plan: sub, First: first, Pre: pre}
		for _, nd := range sub.Nodes {
			state.Toggle(in.NodeIndex(nd.Switch))
		}
		first += len(sub.Nodes)
	}
	return stages, state
}

// stageSeed derives the extension sampler's seed of stage k from
// Options.Seed — never from the task or the worker it landed on.
func stageSeed(seed int64, k int) int64 {
	return seed ^ 0x5E3779B97F4A7C15 ^ int64(k)*0x5851F42D4C957F2D
}

// run is the engine behind Batch and Traces: decide is its work on
// one stage.
func run(tasks []Task, opts Options, decide func(ws *worker, t Task, st Stage, k int, opts Options) core.StageVerdict) []*Report {
	opts = opts.withDefaults()
	reports := make([]*Report, len(tasks))

	// Materialize every stage work item with its (deterministic)
	// pre-stage state. The final-state check is cheap and serial.
	type item struct {
		task, stage int
		Stage
	}
	var items []item
	for t, task := range tasks {
		in, p := task.Instance, task.Plan
		r := &Report{Algorithm: p.Algorithm, Properties: task.Props}
		reports[t] = r
		if err := p.Validate(in); err != nil {
			r.StructureErr = err
			continue
		}
		stages, final := Stages(in, p)
		r.Rounds = make([]RoundResult, len(stages))
		for k, st := range stages {
			items = append(items, item{task: t, stage: k, Stage: st})
		}
		want := in.New
		if p.Rollback {
			want = in.Old
		}
		walk, outcome := in.Walk(final)
		r.FinalStateOK = outcome == core.Reached && walk.Equal(want)
	}

	// Per-worker scratch, rebound per work item.
	workers := make([]worker, opts.Workers)
	for w := range workers {
		workers[w] = worker{rc: core.NewRoundChecker(), walker: core.NewWalker()}
	}
	parallelFor(opts.Workers, len(items), func(w, k int) {
		it := items[k]
		rr := &reports[it.task].Rounds[it.stage]
		rr.Round, rr.Size, rr.First = it.stage, len(it.Plan.Nodes), it.First
		rr.StageVerdict = decide(&workers[w], tasks[it.task], it.Stage, it.stage, opts)
	})
	return reports
}

// worker is one worker's reusable scratch: the branching search and
// the incremental walker.
type worker struct {
	rc     *core.RoundChecker
	walker *core.Walker
}

// parallelFor runs f(worker, 0..n-1) over at most workers goroutines.
// Work is handed out via an atomic counter; the worker index lets
// callers give each goroutine private scratch. With workers <= 1 it
// degenerates to a plain loop on worker 0.
func parallelFor(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}
