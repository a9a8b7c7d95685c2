package core

import (
	"math/bits"
	"slices"
)

// VisitIdeals enumerates every order ideal (down-closed node set) of
// the plan exactly once — the plan's reachable transient states. It is
// the engine of IdealStates, the reference the tests hold the search
// (RoundChecker.Decide) to. The enumeration is a DFS over
// include/exclude decisions on minimal elements, so consecutive
// callbacks change the current set one node at a time: flip(i, on)
// reports each single-node change, and visit is called once per ideal,
// with the current set equal to that ideal. visit returning
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
