package core

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"tsu/internal/netem"
)

// VisitIdeals enumerates every order ideal (down-closed node set) of
// the plan exactly once — the plan's reachable transient states. The
// enumeration is a DFS over include/exclude decisions on minimal
// elements, so consecutive callbacks change the current set one node
// at a time: flip(i, on) reports each single-node change (pair it with
// Walker.Flip for incremental re-walks), and visit is called once per
// ideal, with the current set equal to that ideal. visit returning
// false aborts; VisitIdeals reports whether the enumeration ran to
// completion. The DFS is deterministic: branches always pick the
// smallest eligible node index.
//
// A node is eligible while it is neither included nor excluded and
// every dependency is included. The DFS keeps the eligible nodes as a
// bitset and each node's count of dependencies not yet included, so a
// step costs the branching node's out-degree and a scan for the lowest
// set bit, not a pass over every node and its dependencies.
func (p *Plan) VisitIdeals(flip func(node int, on bool), visit func() bool) bool {
	n := len(p.Nodes)
	edges := 0
	for _, nd := range p.Nodes {
		edges += len(nd.Deps)
	}
	// One scratch array: the unmet-dependency counts, the successor
	// lists flattened (node i's are succ[start[i]:start[i+1]]) and the
	// eligible bitset.
	scratch := make([]uint32, 2*n+1+edges+(n+31)/32)
	e := idealDFS{
		unmet: scratch[:n],
		start: scratch[n : 2*n+1],
		succ:  scratch[2*n+1 : 2*n+1+edges],
		free:  scratch[2*n+1+edges:],
		flip:  flip,
		visit: visit,
	}
	for i, nd := range p.Nodes {
		e.unmet[i] = uint32(len(nd.Deps))
		if len(nd.Deps) == 0 {
			e.free[i>>5] |= 1 << (i & 31)
		}
		for _, d := range nd.Deps {
			e.start[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		e.start[i+1] += e.start[i]
	}
	// Filling each list from its start leaves start[d] at the start of
	// the next list: shift back by one.
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			e.succ[e.start[d]] = uint32(i)
			e.start[d]++
		}
	}
	copy(e.start[1:], e.start[:n])
	e.start[0] = 0
	return e.next()
}

// idealDFS is VisitIdeals' search state.
type idealDFS struct {
	unmet, start, succ, free []uint32
	flip                     func(node int, on bool)
	visit                    func() bool
}

// next branches on the smallest eligible node — included first, then
// excluded — or, with none left, visits the current ideal. Unless visit
// aborts, it leaves the state as it found it.
func (e *idealDFS) next() bool {
	m := -1
	for w, b := range e.free {
		if b != 0 {
			m = w<<5 + bits.TrailingZeros32(b)
			break
		}
	}
	if m < 0 {
		return e.visit()
	}
	bit := uint32(1) << (m & 31)
	e.free[m>>5] &^= bit
	succ := e.succ[e.start[m]:e.start[m+1]]
	for _, s := range succ {
		if e.unmet[s]--; e.unmet[s] == 0 {
			e.free[s>>5] |= 1 << (s & 31)
		}
	}
	e.flip(m, true)
	if !e.next() {
		return false
	}
	e.flip(m, false)
	for _, s := range succ {
		if e.unmet[s] == 0 {
			e.free[s>>5] &^= 1 << (s & 31)
		}
		e.unmet[s]++
	}
	// Excluded, m stays out of the eligible set below this branch.
	if !e.next() {
		return false
	}
	e.free[m>>5] |= bit
	return true
}

// StageVerdict is what Walker.CheckStage learns about one stage.
type StageVerdict struct {
	// Exact reports that every order ideal of the stage was checked:
	// a clean verdict is a proof. Otherwise Orders sampled delivery
	// orders were replayed.
	Exact bool
	// States counts the ideals the enumeration checked, Orders the
	// delivery orders the sampler replayed, and Events every property
	// check of either.
	States, Orders, Events int
	// Trace lists the violating state's in-flight nodes (stage node
	// indices) in delivery order: ascending for an enumerated minimum
	// ideal, the minimized prefix's order for a sampled one.
	Trace []int
	// Violation is the counterexample at pre plus Trace, nil when none
	// was found.
	Violation *CounterExample
}

// heavyTailBias is the fraction of sampled orders whose delivery times
// are drawn from the heavy-tailed install-latency model (sorted by time)
// rather than uniform permutations.
const heavyTailBias = 0.5

// CheckStage decides props over every order ideal of p — a whole plan
// or one of its Stages — on top of the state pre (nil: the old
// configuration). An install *toggles* its switch, so a rollback plan
// runs on the same code from its BaseState.
//
// Within budget ideals it enumerates them, each exactly once, the
// walker following one flip at a time: in binary-reflected Gray-code
// order over all subsets when p has no edge, by Plan.VisitIdeals
// otherwise. It reports the minimum violating ideal by ascending
// (size, node-index mask) — minimum-size, and therefore 1-minimal among
// reachable states: every smaller ideal was checked clean, and removing
// a maximal element yields one.
//
// Past the budget it replays samples linear extensions of p instead,
// checking after every install. The first half are heavy-tail-biased:
// the ack-driven dispatch is simulated with per-node install latencies
// from a bounded Pareto stall model (issue = latest dependency ack,
// delivery order = completion-time order) — in a stage without edges,
// one stalled switch delivering long after the rest. The others draw
// uniformly among the released nodes, which on an antichain is a
// uniform permutation. The draws come from seed alone, and the first
// violating prefix is minimized (Instance.Minimize).
func (w *Walker) CheckStage(pre State, p *Plan, props Property, budget, samples int, seed int64) StageVerdict {
	idx := make([]int, len(p.Nodes))
	for i, nd := range p.Nodes {
		idx[i] = w.in.NodeIndex(nd.Switch)
	}
	if v, ok := w.enumerate(pre, p, idx, props, budget); ok {
		return v
	}
	return w.sample(pre, p, idx, props, samples, seed)
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

// enumerate is CheckStage's exhaustive half; ok is false when p has
// more than budget order ideals.
func (w *Walker) enumerate(pre State, p *Plan, idx []int, props Property, budget int) (v StageVerdict, ok bool) {
	// A layer is an antichain, so its 2^width subsets are ideals
	// already: past the budget, skip the scan it would give up on.
	if width := p.Width(); width > 30 || 1<<width > budget {
		return v, false
	}
	// The current ideal and the best violating one as node-index
	// bitsets, compared as numbers from the top word down.
	n := len(p.Nodes)
	words := (n + 63) >> 6
	masks := make(State, 2*words)
	cur, best := masks[:words], masks[words:]
	bestSize := -1
	var violated Property
	w.Reset(pre)
	flip := func(i int, _ bool) {
		w.Flip(idx[i])
		cur.Toggle(i)
	}
	visit := func() bool {
		if v.States >= budget {
			return false
		}
		v.States++
		if got := w.Check(props); got != 0 {
			if size := cur.Count(); bestSize < 0 || size < bestSize || size == bestSize && maskLess(cur, best) {
				bestSize, violated = size, got
				copy(best, cur)
			}
		}
		return true
	}
	if p.NumEdges() == 0 {
		grayVisit(n, func(_ uint32, flipped int) {
			if flipped >= 0 {
				flip(flipped, true)
			}
			visit()
		})
	} else if !p.VisitIdeals(flip, visit) {
		return v, false
	}
	v.Exact, v.Events = true, v.States
	if bestSize >= 0 {
		v.Trace = make([]int, 0, bestSize)
		for i := range p.Nodes {
			if best.Has(i) {
				v.Trace = append(v.Trace, i)
			}
		}
		v.Violation = w.in.counterExample(pre, p, v.Trace, violated)
	}
	return v, true
}

// maskLess orders equal-length bitsets as numbers.
func maskLess(a, b []uint64) bool {
	for k := len(a) - 1; k >= 0; k-- {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// sample is CheckStage's sampled half.
func (w *Walker) sample(pre State, p *Plan, idx []int, props Property, samples int, seed int64) (v StageVerdict) {
	// The empty ideal is common to every extension; check it once.
	v.Events++
	w.Reset(pre)
	if got := w.Check(props); got != 0 {
		v.Violation = w.in.counterExample(pre, p, nil, got)
		return v
	}
	n := len(p.Nodes)
	rng := rand.New(rand.NewSource(seed))
	heavy := int(float64(samples) * heavyTailBias)
	tail := netem.Pareto{Scale: time.Millisecond, Alpha: 1.1, Cap: 500 * time.Millisecond}
	run := NewPlanRun(p)
	ready, order := make([]int, 0, n), make([]int, 0, n)
	finish := make([]time.Duration, n)
	for s := 0; s < samples; s++ {
		order = order[:0]
		if s < heavy {
			// One stalled node delays exactly its dependents, and
			// deliveries land in completion-time order.
			for i, nd := range p.Nodes {
				issue := time.Duration(0)
				for _, d := range nd.Deps {
					issue = max(issue, finish[d])
				}
				finish[i] = issue + tail.Sample(rng)
				order = append(order, i)
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(finish[a], finish[b]) })
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
		v.Orders++
		w.Reset(pre)
		for k, i := range order {
			w.Flip(idx[i])
			v.Events++
			if w.Check(props) != 0 {
				v.Trace, v.Violation = w.in.Minimize(pre, p, order[:k+1], props)
				return v
			}
		}
	}
	return v
}

// Minimize shrinks a violating delivery order of the stage p (a whole
// plan, or one of its Stages, on top of pre) while keeping it a
// reachable state: only nodes maximal within the order — no other kept
// node depends on them — may be dropped, so the kept set stays
// down-closed; in a stage without edges that is every node. It returns
// the kept nodes (stage node indices) in delivery order and the
// counterexample at pre plus them, nil when order does not violate
// props. Dropping any single maximal node of the result makes it pass
// (1-minimality over the plan's reachable states); the property set
// broken there may differ from the original order's — shrinking a loop
// can surface a blackhole first.
func (in *Instance) Minimize(pre State, p *Plan, order []int, props Property) ([]int, *CounterExample) {
	cur := slices.Clone(order)
	violated := in.CheckState(in.stateAfter(pre, p, cur), props)
	if violated == 0 {
		return cur, nil
	}
	maximal := func(k int) bool {
		for j, e := range cur {
			if j != k && slices.Contains(p.Nodes[e].Deps, cur[k]) {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for k := range cur {
			if !maximal(k) {
				continue
			}
			cand := slices.Delete(slices.Clone(cur), k, k+1)
			if got := in.CheckState(in.stateAfter(pre, p, cand), props); got != 0 {
				cur, violated, changed = cand, got, true
				break
			}
		}
	}
	return cur, in.counterExample(pre, p, cur, violated)
}

// stateAfter returns a fresh copy of pre with the given nodes of p
// delivered, each toggling its switch.
func (in *Instance) stateAfter(pre State, p *Plan, nodes []int) State {
	st := in.CloneState(pre)
	for _, i := range nodes {
		if j := in.NodeIndex(p.Nodes[i].Switch); j >= 0 {
			st.Toggle(j)
		}
	}
	return st
}

// counterExample materializes the violation at pre plus nodes of p.
func (in *Instance) counterExample(pre State, p *Plan, nodes []int, violated Property) *CounterExample {
	st := in.stateAfter(pre, p, nodes)
	walk, _ := in.Walk(st)
	return &CounterExample{Updated: st, Walk: walk, Violated: violated}
}
