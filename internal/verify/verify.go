// Package verify checks transient consistency of update plans.
//
// A plan is transiently consistent for a property set when the property
// holds in every reachable intermediate state — every order ideal of
// its dependency DAG (see core.Plan). The verifier has one engine and
// its work item is a *stage* (core.Plan.Stages): the plan is split at
// its series cuts, and the ideals are "all earlier stages applied plus
// an ideal of the stage in flight". A stage without an internal edge on
// a forward plan — every round of a layered plan — is a set of switches
// of which any subset may have taken effect: it is decided exactly by
// the core package's branching walk search and the polynomial
// double-edge test for strong loop freedom, and by randomized subset
// sampling when the search exhausts its budget. Any other stage (a
// sparse DAG, a rollback) is decided by enumerating its order ideals
// with single-switch flips, and by sampled linear extensions past the
// budget. A sampled stage is marked inexact.
//
// The engine is parallel: stages are independent work items (the state
// a stage starts from is determined by the plan alone, not by earlier
// verdicts), so they fan out over a worker pool sized by
// Options.Workers, and subset-sampling fallbacks split into fixed-size
// chunks that fan out the same way. Results merge deterministically —
// the report is identical for every worker count, including 1. Batch
// verifies many (instance, plan) pairs in one pool, which is how the
// experiment harness amortizes across thousands of instances.
//
// The verifier is algorithm-agnostic: every scheduler in this
// repository is validated against it in tests, and the experiment
// harness uses it to count violations of the one-shot baseline.
package verify

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// Options configures verification.
type Options struct {
	// Budget bounds the exact search of one stage: walk steps of the
	// branching subset search for an edge-free forward stage, order
	// ideals enumerated for a DAG or rollback stage. Zero selects
	// core.DefaultCheckBudget.
	Budget int

	// Samples is the number of random draws checked per stage when the
	// exact search exhausts its budget — subsets of an edge-free
	// forward stage, linear extensions (every prefix checked) of a DAG
	// or rollback stage. Zero selects 1024.
	Samples int

	// Seed seeds the sampling RNGs. Verification is deterministic in
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
// layered plan.
type RoundResult struct {
	Round     int                  // the stage's index in Plan.Stages
	Size      int                  // nodes in the stage
	Exact     bool                 // exhaustive over all of the stage's ideals vs sampled
	Violation *core.CounterExample // nil when no violation found
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
// any stage, and a correct final state. An inexact (sampled) stage
// without violations still counts as passing; check Exact per stage
// when exhaustiveness matters.
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
		fmt.Fprintf(&b, "ok (sampled, %d rounds)", len(r.Rounds))
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
func Plan(in *core.Instance, p *core.Plan, props core.Property, opts Options) *Report {
	return Batch([]Task{{Instance: in, Plan: p, Props: props}}, opts)[0]
}

// checkDAG decides one DAG or rollback stage on w: its order ideals
// exhaustively within Options.Budget, sampled linear extensions past
// it. PlanCounterexample, which decides a whole plan as task 0 /
// stage 0, shares it — and so the sampler's seed.
func checkDAG(w *core.Walker, pre core.State, p *core.Plan, props core.Property, opts Options, task, stage int) (cex *core.CounterExample, exact bool) {
	if cex, exact = w.CheckIdeals(pre, p, props, opts.Budget); !exact {
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x7F4A7C159E3779B9 ^ int64(task)<<40 ^ int64(stage)<<20))
		cex = w.SampleExtensions(pre, p, props, opts.Samples, rng)
	}
	return cex, exact
}

// Batch verifies many plans in one worker pool. Per-stage work items
// from every task interleave freely across workers; results are merged
// back per task, so reports[i] corresponds to tasks[i] and is
// bit-identical to a serial run.
func Batch(tasks []Task, opts Options) []*Report {
	opts = opts.withDefaults()
	reports := make([]*Report, len(tasks))

	// Materialize every stage work item with its (deterministic)
	// pre-stage state. The final-state check is cheap and serial.
	type item struct {
		task  int
		stage int
		plan  *core.Plan // the stage's sub-DAG
		pre   core.State // all earlier stages applied
		round bool       // edge-free and forward: any subset of its switches may be in effect
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
		stages := p.Stages()
		r.Rounds = make([]RoundResult, len(stages))
		state, want := in.NewState(), in.New
		if p.Rollback {
			state, want = p.BaseState(in), in.Old
		}
		pres := make(core.State, len(state)*len(stages)) // every stage's pre-state, one array
		for k, st := range stages {
			pre := pres[k*len(state) : (k+1)*len(state)]
			copy(pre, state)
			items = append(items, item{task: t, stage: k, plan: st, pre: pre,
				round: !p.Rollback && st.NumEdges() == 0})
			for _, nd := range st.Nodes {
				if j := in.NodeIndex(nd.Switch); p.Rollback {
					state.Clear(j)
				} else {
					state.Set(j)
				}
			}
		}
		walk, outcome := in.Walk(state)
		r.FinalStateOK = outcome == core.Reached && walk.Equal(want)
	}

	// Per-worker scratch: the branching search's bitset buffers and
	// the incremental walker are reused across every work item a
	// worker handles (they rebind per instance), so steady-state
	// verification does not allocate per stage.
	scratches := make([]*workerScratch, opts.Workers)
	for w := range scratches {
		scratches[w] = &workerScratch{rc: core.NewRoundChecker(), walker: core.NewWalker()}
	}

	// Phase 1: exact search, one work item per stage. A DAG or rollback
	// stage that runs out of budget samples its extensions right here.
	parallelFor(opts.Workers, len(items), func(w, k int) {
		it := items[k]
		in, props := tasks[it.task].Instance, tasks[it.task].Props
		rr := RoundResult{Round: it.stage, Size: len(it.plan.Nodes)}
		if it.round {
			rr.Violation, rr.Exact = scratches[w].rc.Check(in, it.pre, scratches[w].switches(it.plan), props, opts.Budget)
		} else {
			rr.Violation, rr.Exact = checkDAG(scratches[w].walker.Bind(in), it.pre, it.plan, props, opts, it.task, it.stage)
		}
		reports[it.task].Rounds[it.stage] = rr
	})

	// Phase 2: subset sampling for the edge-free stages the exact
	// search could not exhaust, split into fixed-size chunks (chunking
	// is independent of the worker count, so results are too).
	type chunk struct {
		item   int // index into items
		offset int // first sample of the chunk
		count  int
	}
	const chunkSamples = 128
	var chunks []chunk
	chunkCex := make(map[int][]*core.CounterExample) // item -> per-chunk result
	for k, it := range items {
		rr := &reports[it.task].Rounds[it.stage]
		if !it.round || rr.Exact || rr.Violation != nil {
			continue
		}
		n := (opts.Samples + chunkSamples - 1) / chunkSamples
		chunkCex[k] = make([]*core.CounterExample, n)
		for c := 0; c < n; c++ {
			count := chunkSamples
			if last := opts.Samples - c*chunkSamples; last < count {
				count = last
			}
			chunks = append(chunks, chunk{item: k, offset: c * chunkSamples, count: count})
		}
	}
	parallelFor(opts.Workers, len(chunks), func(w, j int) {
		ch := chunks[j]
		it := items[ch.item]
		task := tasks[it.task]
		seed := opts.Seed ^ (int64(it.task)+1)<<40 ^ (int64(it.stage)+1)<<20 ^ int64(ch.offset)
		rng := rand.New(rand.NewSource(seed))
		chunkCex[ch.item][ch.offset/chunkSamples] = scratches[w].sampleChunk(
			task.Instance, it.pre, scratches[w].switches(it.plan), task.Props, ch.count, rng, ch.offset == 0)
	})
	for k, cexs := range chunkCex {
		it := items[k]
		rr := &reports[it.task].Rounds[it.stage]
		for _, cex := range cexs { // lowest chunk wins: deterministic
			if cex != nil {
				rr.Violation = cex
				break
			}
		}
	}
	return reports
}

// workerScratch is one verification worker's reusable state: the
// branching search's bitset buffers and the incremental walker (ideal
// enumeration, both sampling fallbacks) plus subset bookkeeping. Buffers grow to the
// largest instance seen and rebind per work item.
type workerScratch struct {
	rc     *core.RoundChecker
	walker *core.Walker
	round  []topo.NodeID // an edge-free stage as the switch set the searches take
	cur    []bool        // sampling: current subset membership per round element
	idx    []int         // sampling: dense node index per round element
}

// switches lists the stage's switches, in node order, in the worker's
// buffer.
func (ws *workerScratch) switches(st *core.Plan) []topo.NodeID {
	ws.round = ws.round[:0]
	for _, nd := range st.Nodes {
		ws.round = append(ws.round, nd.Switch)
	}
	return ws.round
}

// sampleChunk draws count random subsets of round on top of done and
// returns the first counterexample, or nil. When endpoints is set the
// empty and full subsets are checked first (once per round, by chunk 0).
//
// Successive samples run on the incremental walker: only the switches
// whose membership changed between one random subset and the next are
// flipped (re-walking just the changed suffix), instead of cloning the
// state and re-walking from the source per sample. The subsets drawn —
// one rng.Intn(2) per round element per sample — are unchanged, so
// verdicts are identical to the clone-per-sample implementation.
func (ws *workerScratch) sampleChunk(in *core.Instance, done core.State, round []topo.NodeID, props core.Property, count int, rng *rand.Rand, endpoints bool) *core.CounterExample {
	w := ws.walker.Bind(in)
	w.Reset(done)
	if cap(ws.cur) < len(round) {
		ws.cur = make([]bool, len(round))
		ws.idx = make([]int, len(round))
	}
	cur := ws.cur[:len(round)]
	idx := ws.idx[:len(round)]
	for j, v := range round {
		cur[j] = false
		idx[j] = in.NodeIndex(v)
	}
	check := func() *core.CounterExample {
		if violated := w.Check(props); violated != 0 {
			return &core.CounterExample{Updated: in.CloneState(w.State()), Walk: w.Path(), Violated: violated}
		}
		return nil
	}
	if endpoints {
		if cex := check(); cex != nil { // the empty subset (state = done)
			return cex
		}
		for j := range round { // the full subset
			w.Flip(idx[j])
			cur[j] = true
		}
		if cex := check(); cex != nil {
			return cex
		}
	}
	for i := 0; i < count; i++ {
		for j := range round {
			if want := rng.Intn(2) == 0; want != cur[j] {
				w.Flip(idx[j])
				cur[j] = want
			}
		}
		if cex := check(); cex != nil {
			return cex
		}
	}
	return nil
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
