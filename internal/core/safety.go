package core

import (
	"fmt"

	"tsu/internal/topo"
)

// CounterExample witnesses a transient-consistency violation: a
// reachable intermediate state (completed rounds plus the Updated
// subset of the in-flight round) together with the offending forwarding
// walk. Updated is keyed by the instance's node index; use
// Instance.StateNodes to list the switches.
type CounterExample struct {
	Updated  State     // the violating rule state
	Walk     topo.Path // forwarding walk from the source in that state
	Violated Property  // which property the state violates
}

func (c *CounterExample) String() string {
	return fmt.Sprintf("violation{%s, walk %v}", c.Violated, c.Walk)
}

// DefaultCheckBudget bounds the branch points (visited in-flight
// switches split on) the exact subset checker explores before it
// reports inexactness: roughly 20 walk-reachable in-flight switches.
// Branch points never outnumber a stage's order ideals, so a stage
// with at most that many ideals is always decided.
const DefaultCheckBudget = 1 << 20

// RoundSafeStrongLF reports whether every subset of round, applied on
// top of done, keeps the full rule graph acyclic (strong loop freedom).
//
// The check is exact and polynomial: consider the graph in which
// completed and non-pending switches carry their single current rule
// edge, untouched pending switches their old edge, and in-flight
// switches *both* their old and new edges. Any violating subset's rule
// graph is a subgraph of this double-edge graph, so a cycle there is
// necessary; conversely a double-edge cycle visits each switch at most
// once and therefore picks one edge per in-flight switch — a consistent
// subset realizing the cycle. Hence: all subsets safe ⇔ the double-edge
// graph is acyclic.
func (in *Instance) RoundSafeStrongLF(done State, round []topo.NodeID) bool {
	return !in.ruleCycle(done, in.StateOf(round...), nil)
}

// ruleCycle searches the double-edge graph of done and inFlight (see
// RoundSafeStrongLF) for a directed cycle; with inFlight empty that is
// the rule graph of the state done. When it finds one and witness is
// non-nil, *witness becomes a state whose rule graph contains that
// cycle: done plus every in-flight switch whose edge on the cycle is its
// new one. It allocates only a witness, and scratch past 128 switches.
func (in *Instance) ruleCycle(done, inFlight State, witness *State) bool {
	n := len(in.nodeOf)
	var colorBuf [128]uint8
	s := cycleSearch{in: in, done: done, inFlight: inFlight, witness: witness}
	if n <= len(colorBuf) {
		s.color = colorBuf[:n]
	} else {
		s.color = make([]uint8, n)
	}
	for i := 0; i < n; i++ {
		if s.color[i] == white && s.visit(int32(i)) != noCycle {
			return true
		}
	}
	return false
}

// DFS colors of cycleSearch, and the two results of visit that are not
// a node index.
const (
	white = 0
	grey  = 1
	black = 2

	noCycle       = -1 // no cycle reachable
	cycleRecorded = -2 // a cycle was found and every switch on it recorded
)

// cycleSearch is ruleCycle's depth-first search.
type cycleSearch struct {
	in             *Instance
	done, inFlight State
	witness        *State
	color          []uint8
}

// visit explores the double edges out of i. While a found cycle unwinds
// through the switches on it, visit returns the grey switch that closes
// it, and each of them records its cycle edge in the witness.
func (s *cycleSearch) visit(i int32) int32 {
	in := s.in
	s.color[i] = grey
	// The double-edge successors of i, -1 for none: nw is the new edge
	// of an in-flight or done switch, old every other single rule.
	old, nw := in.oldSuccIdx[i], in.newSuccIdx[i]
	switch {
	case !in.pendingBits.Has(int(i)):
		if nw >= 0 {
			old = nw
		}
		nw = -1
	case s.done.Has(int(i)):
		old = -1
	case !s.inFlight.Has(int(i)):
		nw = -1
	}
	for k, t := range [2]int32{nw, old} {
		g := int32(noCycle)
		switch {
		case t < 0:
			continue
		case s.color[t] == grey:
			g = t
		case s.color[t] == white:
			g = s.visit(t)
		}
		if g >= 0 && s.witness != nil { // i is on the cycle, leaving it along t
			if *s.witness == nil {
				*s.witness = in.CloneState(s.done)
			}
			if k == 0 {
				s.witness.Set(int(i))
			}
		}
		if g == i {
			g = cycleRecorded
		}
		if g != noCycle {
			return g
		}
	}
	s.color[i] = black
	return noCycle
}

// CheckRound exactly decides whether some subset of round, applied on
// top of done, violates one of the walk-based properties (NoBlackhole,
// RelaxedLoopFreedom, WaypointEnforcement). It returns the first
// counterexample found, or nil when all subsets are safe. StrongLoopFreedom
// in props is decided by RoundSafeStrongLF's cycle search, whose cycle
// is the witness.
//
// The search walks from the source, branching (updated / not yet) only
// at in-flight switches the walk actually visits, so the cost is
// 2^(walk-reachable in-flight switches) rather than 2^|round|. The
// budget caps explored branch points; exact=false means the budget was
// exhausted before the search completed (no violation found so far).
//
// CheckRound is read-only on the instance and safe to call from
// concurrent goroutines (the parallel verifier does). It allocates
// fresh scratch per call; loops that check many rounds should reuse a
// RoundChecker instead.
func (in *Instance) CheckRound(done State, round []topo.NodeID, props Property, budget int) (cex *CounterExample, exact bool) {
	return NewRoundChecker().Check(in, done, round, props, budget)
}

// RoundChecker is reusable scratch for CheckRound's branching subset
// search: the four per-search bitsets and the walk stack live in one
// backing array that grows to the largest instance seen and is zeroed —
// not reallocated — between calls. One RoundChecker per worker
// goroutine; it is not safe for concurrent use.
type RoundChecker struct {
	c   roundChecker
	buf State // backing array for the four scratch bitsets
}

// NewRoundChecker returns an empty checker; buffers are sized on first
// use.
func NewRoundChecker() *RoundChecker { return &RoundChecker{} }

// Check is CheckRound on this checker's scratch buffers.
func (rc *RoundChecker) Check(in *Instance, done State, round []topo.NodeID, props Property, budget int) (cex *CounterExample, exact bool) {
	return rc.search(in, done, round, nil, props, budget)
}

// Decide is Check for every order ideal of st — a whole plan or one of
// its Stages — on top of pre; a rollback stage runs from pre∖st.
//
// With edges, a visited in-flight switch branches only on choices that
// extend to an ideal: delivering it delivers its in-stage dependencies,
// holding it back holds back its dependents. Neither can contradict an
// earlier choice, so every violation found is reachable and a completed
// search exact. A double-edge cycle may take choices no ideal makes;
// the same walk from each in-flight switch then decides strong loop
// freedom, a rule cycle being a walk that revisits a switch.
func (rc *RoundChecker) Decide(in *Instance, pre State, st *Plan, props Property, budget int) (cex *CounterExample, exact bool) {
	if st.Rollback {
		pre = in.Without(pre, st) // see Instance.Without
	}
	return rc.search(in, pre, nil, st, props, budget)
}

// BranchPoints reports the branch points the last Check or Decide
// spent, at most its budget — the one coverage counter a search has.
func (rc *RoundChecker) BranchPoints() int { return min(rc.c.limit, rc.c.limit-rc.c.budget) }

// search is Check and Decide: round's switches, or st's, in flight.
func (rc *RoundChecker) search(in *Instance, done State, round []topo.NodeID, st *Plan, props Property, budget int) (*CounterExample, bool) {
	if budget <= 0 {
		budget = DefaultCheckBudget
	}
	w := in.words
	if cap(rc.buf) < 4*w {
		rc.buf = make(State, 4*w)
	}
	rc.buf = rc.buf[:4*w]
	clear(rc.buf)
	rc.c = roundChecker{
		in:           in,
		done:         done,
		inRound:      rc.buf[0*w : 1*w],
		budget:       budget,
		limit:        budget,
		assignedMask: rc.buf[1*w : 2*w],
		assignedVal:  rc.buf[2*w : 3*w],
		onWalk:       rc.buf[3*w : 4*w],
		walk:         rc.c.walk[:0], // reuse the scratch slices' capacity
		trail:        rc.c.trail[:0],
		nodes:        rc.c.nodes[:0],
		stageOf:      rc.c.stageOf,
	}
	c := &rc.c
	for _, v := range round {
		c.nodes = append(c.nodes, in.idx(v))
	}
	if st != nil {
		for _, nd := range st.Nodes {
			c.nodes = append(c.nodes, in.idx(nd.Switch))
		}
	}
	if st != nil && st.NumEdges() > 0 {
		c.stage, c.succ = st, NewPlanRun(st)
		c.stageOf = append(c.stageOf[:0], make([]int32, len(in.nodeOf))...)
		for k, i := range c.nodes {
			c.stageOf[i] = int32(k)
		}
	}
	for _, i := range c.nodes {
		if in.pendingBits.Has(int(i)) && !done.Has(int(i)) {
			c.inRound.Set(int(i))
		}
	}
	if props.Has(StrongLoopFreedom) {
		var cyc State
		if in.ruleCycle(done, c.inRound, &cyc) && c.stage != nil {
			// A cycle through no in-flight switch is in done, the first state.
			if cyc = nil; !in.ruleCycle(done, nil, &cyc) {
				c.loop = StrongLoopFreedom
				for _, i := range c.nodes {
					if c.step(i) {
						cyc = c.cex.Updated
						break
					}
				}
			}
		}
		if cyc != nil {
			walk, _ := in.Walk(cyc)
			return &CounterExample{Updated: cyc, Walk: walk, Violated: StrongLoopFreedom}, true
		}
	}
	if c.props, c.loop = props&^StrongLoopFreedom, props&RelaxedLoopFreedom; c.props != 0 {
		c.step(in.srcIdx)
	}
	return c.cex, !c.exhausted
}

// roundChecker performs the branching walk search of CheckRound and
// Decide over dense node indices. The tri-state per-switch assignment
// (unassigned / updated / not yet) lives in two bitsets: assignedMask
// marks fixed switches, assignedVal their value; trail lists them in
// the order they were fixed.
type roundChecker struct {
	in           *Instance
	done         State
	inRound      State
	props        Property
	loop         Property // what revisiting a switch violates, 0 for nothing
	budget       int      // branch points left
	limit        int      // branch points granted
	assignedMask State
	assignedVal  State
	onWalk       State
	walk         []int32
	trail        []int32
	nodes        []int32 // the in-flight switches; a stage's in node order

	stage   *Plan    // a stage with edges, else nil
	succ    *PlanRun // its dependents
	stageOf []int32  // dense index -> stage node

	cex       *CounterExample
	exhausted bool
}

func (c *roundChecker) updated(i int32) bool {
	return c.done.Has(int(i)) || (c.assignedMask.Has(int(i)) && c.assignedVal.Has(int(i)))
}

// report records a counterexample for the current branch. When tail is
// non-negative it is appended to the recorded walk (the destination for
// a bypass, the repeated switch for a loop); the dropping switch of a
// blackhole is already the last walk element.
func (c *roundChecker) report(violated Property, tail int32) {
	st := c.in.CloneState(c.done)
	for w := range st {
		st[w] |= c.assignedMask[w] & c.assignedVal[w]
	}
	walk := make(topo.Path, 0, len(c.walk)+1)
	for _, i := range c.walk {
		walk = append(walk, c.in.nodeOf[i])
	}
	if tail >= 0 {
		walk = append(walk, c.in.nodeOf[tail])
	}
	c.cex = &CounterExample{Updated: st, Walk: walk, Violated: violated}
}

// step explores the walk arriving at i; it returns true when a
// violation has been recorded (callers unwind immediately).
func (c *roundChecker) step(i int32) bool {
	if c.cex != nil {
		return true
	}
	if i == c.in.dstIdx {
		if c.props.Has(WaypointEnforcement) && c.in.wpIdx >= 0 && !c.onWalk.Has(int(c.in.wpIdx)) {
			c.report(WaypointEnforcement, i)
			return true
		}
		return false
	}
	if c.onWalk.Has(int(i)) {
		if c.loop != 0 {
			c.report(c.loop, i)
			return true
		}
		// The walk cycles: it will never reach the destination or a
		// drop, so no further property can be violated on this branch.
		return false
	}
	c.onWalk.Set(int(i))
	c.walk = append(c.walk, i)
	defer func() {
		c.onWalk.Clear(int(i))
		c.walk = c.walk[:len(c.walk)-1]
	}()

	if c.inRound.Has(int(i)) && !c.assignedMask.Has(int(i)) {
		if c.budget--; c.budget < 0 {
			c.exhausted = true
			return false
		}
		mark := len(c.trail)
		for _, b := range [2]bool{true, false} {
			c.assign(i, b)
			if c.advance(i) {
				return true
			}
			for _, j := range c.trail[mark:] {
				c.assignedMask.Clear(int(j))
				c.assignedVal.Clear(int(j))
			}
			c.trail = c.trail[:mark]
			if c.exhausted {
				break
			}
		}
		return false
	}
	return c.advance(i)
}

// assign fixes switch i updated or not and, in a stage with edges,
// every unassigned switch that choice forces (see Decide).
func (c *roundChecker) assign(i int32, updated bool) {
	if c.assignedMask.Has(int(i)) {
		return // forced already, to the same value
	}
	c.assignedMask.Set(int(i))
	if updated {
		c.assignedVal.Set(int(i))
	}
	c.trail = append(c.trail, i)
	if c.stage == nil {
		return
	}
	k := c.stageOf[i]
	if updated != c.stage.Rollback { // delivered: so is every dependency
		for _, d := range c.stage.Nodes[k].Deps {
			c.assign(c.nodes[d], updated)
		}
	} else { // held back: so is every dependent
		for _, d := range c.succ.succ[c.succ.succStart[k]:c.succ.succStart[k+1]] {
			c.assign(c.nodes[d], updated)
		}
	}
}

// advance follows i's rule under the current assignment.
func (c *roundChecker) advance(i int32) bool {
	in := c.in
	var next int32
	if in.pendingBits.Has(int(i)) {
		if c.updated(i) {
			next = in.newSuccIdx[i]
		} else {
			next = in.oldSuccIdx[i]
		}
	} else if in.newSuccIdx[i] >= 0 {
		next = in.newSuccIdx[i]
	} else {
		next = in.oldSuccIdx[i]
	}
	if next < 0 {
		if c.props.Has(NoBlackhole) {
			c.report(NoBlackhole, -1) // i is already the walk's last element
			return true
		}
		return false
	}
	return c.step(next)
}

// hasGuaranteedRule reports whether the switch at index i is guaranteed
// to have a forwarding rule installed in every state from done onward
// (it is the destination, is non-pending, already done, or carries an
// old rule). Only untouched new-path-only switches lack rules.
// Schedulers use this to avoid transient blackholes.
func (in *Instance) hasGuaranteedRule(i int32, done State) bool {
	return i == in.dstIdx || !in.pendingBits.Has(int(i)) || done.Has(int(i)) || !in.newOnlyIdx(i)
}
