package explore

import (
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/topo"
)

// stage is the explorer's one work item: a block of the plan between
// two series cuts (core.Plan.Stages) together with the state all
// earlier stages leave behind. A whole plan taken as one stage (idx 0,
// pre = startState) is what PlanCounterexample decides.
type stage struct {
	idx   int        // position in Plan.Stages — the Round of reports
	plan  *core.Plan // the stage's sub-DAG
	pre   core.State // all earlier stages delivered
	layer int        // layer, in the whole plan, of the stage's roots
}

// startState returns the state no node of p has been delivered in: the
// old configuration, or for a rollback plan the installed set.
func startState(in *core.Instance, p *core.Plan) core.State {
	if p.Rollback {
		return p.BaseState(in)
	}
	return in.NewState()
}

// planStages materializes each of p's stages with its (deterministic)
// pre-state and the layer its roots sit on.
func planStages(in *core.Instance, p *core.Plan) []stage {
	subs := p.Stages()
	stages := make([]stage, len(subs))
	pre, layer := startState(in, p), 0
	for k, sub := range subs {
		stages[k] = stage{idx: k, plan: sub, pre: in.CloneState(pre), layer: layer}
		for _, nd := range sub.Nodes {
			deliver(in, pre, nd.Switch)
		}
		layer += sub.Depth()
	}
	return stages
}

// deliver applies the given switches' FlowMods to st in place. A
// delivery toggles its switch: sets it on the way forward, clears it in
// a rollback.
func deliver(in *core.Instance, st core.State, switches ...topo.NodeID) core.State {
	for _, v := range switches {
		if i := in.NodeIndex(v); i < 0 {
			continue
		} else if st.Has(i) {
			st.Clear(i)
		} else {
			st.Set(i)
		}
	}
	return st
}

// violation materializes the counterexample reached by delivering
// trace on top of the stage's pre-state.
func (st *stage) violation(in *core.Instance, trace Trace, violated core.Property) *Violation {
	switches := trace.Switches()
	walk, _ := in.Walk(deliver(in, in.CloneState(st.pre), switches...))
	return &Violation{
		Round:    st.idx,
		Violated: violated,
		Trace:    trace,
		Walk:     walk,
		Updated:  in.StateNodes(in.StateOf(switches...)),
	}
}

// scratch is one worker's reusable exploration context: an incremental
// walker, a transposition table shared across all stages the worker
// handles, and the per-stage buffers. Nothing in it escapes to the
// report except freshly allocated violation records.
type scratch struct {
	in    *core.Instance
	w     *core.Walker
	mt    *memo
	idx   []int // dense instance index per stage node
	trace Trace // running event trace (sampled mode)
}

func newScratch(in *core.Instance) *scratch {
	return &scratch{in: in, w: in.NewWalker(), mt: newMemo(in)}
}

// check evaluates props in the walker's current state, through the
// transposition table: a state seen before — by another order, another
// prefix, or another stage — is answered from the table.
func (sc *scratch) check(props core.Property) core.Property {
	if v, ok := sc.mt.lookup(sc.w.State()); ok {
		return v
	}
	v := sc.w.Check(props)
	sc.mt.store(sc.w.State(), v)
	return v
}

// memoExhaustiveMax bounds the stage size whose exhaustive scan feeds
// the transposition table. Within one scan every state is distinct —
// the enumeration itself is the transposition across the stage's
// delivery orders — so the table only pays off across stages and
// sampled replays; populating it with 2^n entries from a large stage
// would cost more in inserts and memory than cross-stage hits recover.
// Small stages (the common case for the consistent schedulers) stay in
// the table; large ones check directly.
const memoExhaustiveMax = 12

// exploreStage attacks one stage: exhaustive enumeration of its order
// ideals when they fit the budget, sampled delivery orders otherwise.
func (sc *scratch) exploreStage(st *stage, props core.Property, opts Options) RoundReport {
	n := st.plan.NumNodes()
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	sc.idx = sc.idx[:n]
	for i, nd := range st.plan.Nodes {
		sc.idx[i] = sc.in.NodeIndex(nd.Switch)
	}
	rr := RoundReport{Round: st.idx, Size: n, Exhaustive: true}
	if !sc.exhaustive(st, props, opts, &rr) {
		// Budget exceeded (or >64 nodes): discard partial counters and
		// fall back to sampling.
		rr = RoundReport{Round: st.idx, Size: n}
		sc.sampled(st, props, opts, &rr)
	}
	return rr
}

// grayVisit enumerates all 2^n n-bit masks in binary-reflected
// Gray-code order: gray(k) = k XOR k>>1, and successive masks differ
// in exactly one bit — bit trailingZeros(k) on step k. visit receives
// each mask together with the flipped bit (-1 for the initial empty
// mask). n must be at most 30.
func grayVisit(n int, visit func(mask uint32, flipped int)) {
	visit(0, -1)
	for k := uint32(1); k < 1<<uint(n); k++ {
		visit(k^(k>>1), bits.TrailingZeros32(k))
	}
}

// exhaustive checks every order ideal of the stage exactly once, the
// walker following the enumeration one flip at a time, and reports the
// minimum violating ideal by ascending (size, node-index mask). The
// enumerator is read off the stage: the Gray-code scan of all subsets
// when it has no internal edge (6× cheaper per state than the DFS),
// Plan.VisitIdeals otherwise. A minimum-size violating ideal is
// 1-minimal among reachable states: every strictly smaller ideal was
// checked clean, and removing a maximal element yields exactly such an
// ideal. It reports false when the stage does not fit the
// 1<<MaxExhaustive state budget (rr is then partial and must be
// discarded).
func (sc *scratch) exhaustive(st *stage, props core.Property, opts Options, rr *RoundReport) bool {
	p := st.plan
	n := p.NumNodes()
	antichain := p.NumEdges() == 0
	if n > 64 || antichain && n > opts.MaxExhaustive {
		return false
	}
	sc.w.Reset(st.pre)
	budget := 1 << uint(opts.MaxExhaustive)
	useMemo := n <= memoExhaustiveMax
	var (
		cur, bestMask uint64
		found         bool
		bestSize      int
		bestViolated  core.Property
	)
	visit := func() bool {
		if rr.States >= budget {
			return false
		}
		rr.States++
		rr.Events++
		var violated core.Property
		if useMemo {
			violated = sc.check(props)
		} else {
			violated = sc.w.Check(props)
		}
		if violated != 0 {
			size := bits.OnesCount64(cur)
			if !found || size < bestSize || (size == bestSize && cur < bestMask) {
				found, bestMask, bestSize, bestViolated = true, cur, size, violated
			}
		}
		return true
	}
	if antichain {
		grayVisit(n, func(mask uint32, flipped int) {
			if flipped >= 0 {
				sc.w.Flip(sc.idx[flipped])
			}
			cur = uint64(mask)
			visit()
		})
	} else if !p.VisitIdeals(func(node int, _ bool) {
		sc.w.Flip(sc.idx[node])
		cur ^= 1 << uint(node)
	}, visit) {
		return false
	}
	if found {
		// The trace delivers the ideal's nodes in topological (index)
		// order, each event tagged with the node's layer.
		layers := p.NodeLayers()
		trace := make(Trace, 0, bestSize)
		for i, nd := range p.Nodes {
			if bestMask&(1<<uint(i)) != 0 {
				trace = append(trace, Event{Round: st.layer + layers[i], Switch: nd.Switch})
			}
		}
		rr.Violation = st.violation(sc.in, trace, bestViolated)
	}
	return true
}

// heavyTailBias is the fraction of sampled orders whose delivery times
// are drawn from the heavy-tailed install-latency model (sorted by time)
// rather than uniform permutations.
const heavyTailBias = 0.5

// sampled replays sampled linear extensions of the stage on the
// incremental walker, checking after every event. The first
// Samples×heavyTailBias extensions are heavy-tail-biased: the
// ack-driven dispatch is simulated with per-node install latencies
// from the bounded Pareto stall model (issue = latest dependency ack,
// delivery order = completion-time order) — in a stage without edges,
// one stalled switch delivering long after the rest. The others draw
// uniformly random ready nodes via core.PlanRun, which on an antichain
// is a uniform permutation. All draws derive from opts.Seed and the
// stage index alone — never from the worker the stage landed on. The
// first violating prefix is minimized before reporting.
func (sc *scratch) sampled(st *stage, props core.Property, opts Options, rr *RoundReport) {
	p := st.plan
	n := p.NumNodes()
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5E3779B97F4A7C15 ^ int64(st.idx)*0x5851F42D4C957F2D))
	heavy := int(float64(opts.Samples) * heavyTailBias)
	tail := netem.Pareto{Scale: time.Millisecond, Alpha: 1.1, Cap: 500 * time.Millisecond}
	layers := p.NodeLayers()
	run := core.NewPlanRun(p)
	ready := make([]int, 0, n)
	order := make([]int, 0, n)
	finish := make([]time.Duration, n)

	// The empty ideal is common to every extension; check it once.
	rr.Events++
	sc.w.Reset(st.pre)
	if violated := sc.check(props); violated != 0 {
		rr.Violation = st.violation(sc.in, Trace{}, violated)
		return
	}
	for s := 0; s < opts.Samples; s++ {
		order = order[:0]
		if s < heavy {
			// Heavy-tail adversary: simulate the ack-driven dispatch
			// under Pareto install stalls; one stalled node delays
			// exactly its dependents, and deliveries land in
			// completion-time order. With PeerDelays armed, every
			// cross-switch dependency ack additionally pays an
			// adversary-chosen delay on its way between the switches
			// (the decentralized executor's peer messages), so a node's
			// release time is the latest delayed ack, not the latest
			// finish.
			for i, nd := range p.Nodes {
				issue := time.Duration(0)
				for _, d := range nd.Deps {
					at := finish[d]
					if opts.PeerDelays && p.Nodes[d].Switch != nd.Switch {
						at += tail.Sample(rng)
					}
					issue = max(issue, at)
				}
				finish[i] = issue + tail.Sample(rng)
				order = append(order, i)
			}
			sort.SliceStable(order, func(a, b int) bool { return finish[order[a]] < finish[order[b]] })
		} else {
			ready = run.Reset(ready[:0])
			for len(ready) > 0 {
				k := rng.Intn(len(ready))
				i := ready[k]
				ready[k] = ready[len(ready)-1]
				ready = run.Complete(i, ready[:len(ready)-1])
				order = append(order, i)
			}
		}
		rr.Orders++
		sc.w.Reset(st.pre)
		sc.trace = sc.trace[:0]
		for _, i := range order {
			sc.w.Flip(sc.idx[i])
			sc.trace = append(sc.trace, Event{Round: st.layer + layers[i], Switch: p.Nodes[i].Switch})
			rr.Events++
			if sc.check(props) != 0 {
				min, minViolated := Minimize(sc.in, st.pre, p, sc.trace, props)
				rr.Violation = st.violation(sc.in, min, minViolated)
				return
			}
		}
	}
}

// Minimize shrinks a violating trace of the stage sub (a whole plan, or
// one of core.Plan.Stages) while keeping it a reachable state: only
// events that are maximal within the trace — no other kept event
// depends on them — may be dropped, so the surviving set stays
// down-closed; in a stage without edges that is every event. Replaying
// the result on top of pre (all earlier stages delivered) still
// violates props, and dropping any single maximal event makes it pass
// (1-minimality over the plan's reachable states). It returns the
// minimized trace and the property set its replay violates (which may
// differ from the original trace's — shrinking a loop can surface a
// blackhole first). The input trace must violate; Minimize returns it
// unchanged (with a zero violation set) when it somehow does not.
func Minimize(in *core.Instance, pre core.State, sub *core.Plan, trace Trace, props core.Property) (Trace, core.Property) {
	nodeIdx := make(map[topo.NodeID]int, len(sub.Nodes))
	for i, nd := range sub.Nodes {
		nodeIdx[nd.Switch] = i
	}
	replay := func(tr Trace) core.Property {
		return in.CheckState(deliver(in, in.CloneState(pre), tr.Switches()...), props)
	}
	cur := append(Trace(nil), trace...)
	violated := replay(cur)
	if violated == 0 {
		return cur, 0
	}
	maximal := func(tr Trace, i int) bool {
		v := nodeIdx[tr[i].Switch]
		for j, e := range tr {
			if j == i {
				continue
			}
			for _, d := range sub.Nodes[nodeIdx[e.Switch]].Deps {
				if d == v {
					return false
				}
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if !maximal(cur, i) {
				continue
			}
			cand := make(Trace, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if v := replay(cand); v != 0 {
				cur, violated, changed = cand, v, true
				break
			}
		}
	}
	return cur, violated
}
