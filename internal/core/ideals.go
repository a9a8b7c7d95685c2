package core

import "math/bits"

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
