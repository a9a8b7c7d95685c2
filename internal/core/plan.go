package core

import (
	"fmt"
	"math/bits"
	"strings"

	"tsu/internal/topo"
)

// Plan is a dependency DAG of per-switch updates: node i's FlowMod may
// be issued as soon as every dependency's barrier reply has arrived —
// per-node barriers instead of per-round barriers. It is what every
// scheduler returns. The paper's global-barrier rounds are one shape
// of it, the *layered* plan (every switch of round r depends on every
// switch of round r-1, see Layered), while a sparse plan keeps only the
// edges a property proof needs, so a single slow switch stalls just its
// own dependents instead of the whole update.
//
// # Reachable transient states
//
// During execution a node is *issued* once all its dependencies are
// confirmed, and its FlowMod takes effect at an arbitrary instant
// between issue and barrier reply. The rule states reachable under
// every interleaving are exactly the down-closed node sets (order
// ideals) of the DAG: if D is the confirmed set (down-closed by
// construction) then any subset of the issued frontier may have taken
// effect, and D ∪ (subset of frontier) is again down-closed;
// conversely any down-closed S is reached by confirming S minus its
// maximal elements and letting exactly max(S) — an antichain cut —
// take effect.
//
// A *series cut* splits the node list into a prefix and a suffix such
// that every suffix node has every prefix node in its dependency
// closure: nothing of the suffix is issued before the whole prefix is
// confirmed. Stages splits the plan at all of its series cuts, and the
// order ideals are then "all earlier stages plus an ideal of the
// current stage". For a layered plan the stages are the rounds and each
// is an antichain — the round semantics verbatim; a rollback plan reads
// the same over BaseState with bits cleared. A stage is the work item
// of internal/verify and internal/explore.
//
// Nodes are stored in topological order: every dependency index is
// strictly smaller than the node's own index (Validate enforces this,
// and the wire codec relies on it).
type Plan struct {
	// Algorithm names the scheduler that produced the plan (one of
	// the registered names, see Names).
	Algorithm string

	// Guarantees is the property set promised to hold in every
	// reachable transient state (every order ideal) of this plan.
	Guarantees Property

	// LoopFreedomCompromised is set by WayUp when waypoint enforcement
	// and loop freedom were jointly infeasible for the instance
	// (HotNets'14 shows such instances exist); waypoint enforcement is
	// preserved, transient loops may occur in the flagged rounds.
	LoopFreedomCompromised bool

	// Sparse marks plans whose edge set was pruned below the layered
	// closure (SparsePlan, synthesis).
	Sparse bool

	// Rollback marks reverse plans produced by Reverse: nodes *undo*
	// their switch's update, so the network starts from the installed
	// prefix and walks back toward the old configuration. Verification
	// and exploration interpret an ideal I of a rollback plan as the
	// network state base∖I where base is the set of switches the plan
	// covers. Rollback plans cover a subset of the instance's pending
	// set (Validate relaxes the exact-cover check) and never cross the
	// wire — rollback always executes controller-driven.
	Rollback bool

	// Nodes holds one entry per pending switch, in topological order.
	Nodes []PlanNode
}

// PlanNode is one per-switch update of a Plan.
type PlanNode struct {
	// Switch receives this node's FlowMod.
	Switch topo.NodeID

	// Deps lists the indices (into Plan.Nodes, each strictly smaller
	// than this node's own index) whose barriers must arrive before
	// this node's FlowMod is issued. Sorted ascending, no duplicates.
	Deps []int
}

// Layered builds the layered plan of a round schedule: every switch of
// round r depends on every switch of round r-1 (transitively, on all
// earlier rounds), so the plan's order ideals are exactly the round
// states — all earlier rounds applied plus any subset of the current
// one — and Layers (like Stages) gives the rounds back. Empty rounds
// are skipped. It is the one way a round scheduler returns its rounds.
func Layered(algorithm string, guarantees Property, rounds [][]topo.NodeID) *Plan {
	n := 0
	for _, r := range rounds {
		n += len(r)
	}
	p := &Plan{Algorithm: algorithm, Guarantees: guarantees, Nodes: make([]PlanNode, 0, n)}
	// A round's nodes all wait for the previous round, a run of
	// consecutive indices: every deps slice is a window of one 0..n-1
	// array (plans are immutable once built).
	var ident []int
	prev := 0 // where the previous round starts
	for _, round := range rounds {
		if len(round) == 0 {
			continue
		}
		start := len(p.Nodes)
		var deps []int
		if start > 0 {
			if ident == nil {
				ident = make([]int, n)
				for i := range ident {
					ident[i] = i
				}
			}
			deps = ident[prev:start:start]
		}
		for _, v := range round {
			p.Nodes = append(p.Nodes, PlanNode{Switch: v, Deps: deps})
		}
		prev = start
	}
	return p
}

// OpensRound reports whether node i of a layered plan (one Layered
// built, see LayeredView) is the first of its round: node 0, or a node
// that depends on node i-1, the last of the round before.
func (p *Plan) OpensRound(i int) bool {
	deps := p.Nodes[i].Deps
	return i == 0 || len(deps) > 0 && deps[len(deps)-1] == i-1
}

// isLayered reports whether p has the form Layered builds: every node
// of a round depends on exactly the nodes of the round before.
func (p *Plan) isLayered() bool {
	prev, start := 0, 0
	for i, nd := range p.Nodes {
		if p.OpensRound(i) {
			prev, start = start, i
		}
		if len(nd.Deps) != start-prev {
			return false
		}
		for k, d := range nd.Deps {
			if d != prev+k {
				return false
			}
		}
	}
	return true
}

// LayeredView returns p's layered form: p itself when Layered built it
// (what every round scheduler returns), otherwise the layered plan of
// p's layers. The view only adds constraints — each node's dependencies
// lie in lower layers — so its order ideals are ideals of p and it
// keeps p's guarantees.
func (p *Plan) LayeredView() *Plan {
	if !p.Sparse && p.isLayered() {
		return p
	}
	v := Layered(p.Algorithm, p.Guarantees, p.Layers())
	v.LoopFreedomCompromised = p.LoopFreedomCompromised
	return v
}

// NumNodes returns the number of per-switch updates in the plan.
func (p *Plan) NumNodes() int { return len(p.Nodes) }

// NumEdges returns the total number of dependency edges.
func (p *Plan) NumEdges() int {
	e := 0
	for _, n := range p.Nodes {
		e += len(n.Deps)
	}
	return e
}

// layerOf returns each node's layer — the longest dependency chain
// ending at it, roots at 0 — and the plan depth (number of layers).
func (p *Plan) layerOf() ([]int, int) {
	layer := make([]int, len(p.Nodes))
	depth := 0
	for i, n := range p.Nodes {
		for _, d := range n.Deps {
			layer[i] = max(layer[i], layer[d]+1)
		}
		depth = max(depth, layer[i]+1)
	}
	return layer, depth
}

// Depth returns the number of layers — the length, in installs, of the
// longest dependency chain. A layered plan's depth is its round count.
func (p *Plan) Depth() int {
	_, depth := p.layerOf()
	return depth
}

// NodeLayers returns each node's layer, aligned with Nodes — the
// per-node view behind Layers, exposed for executors that track their
// own node metadata (the controller engine).
func (p *Plan) NodeLayers() []int {
	layer, _ := p.layerOf()
	return layer
}

// Width returns the size of the largest layer — the plan's peak
// install parallelism.
func (p *Plan) Width() int {
	layer, depth := p.layerOf()
	counts, w := make([]int, depth), 0
	for _, l := range layer {
		counts[l]++
		w = max(w, counts[l])
	}
	return w
}

// CriticalPath returns the number of barrier waits on the longest
// dependency chain — Depth()-1, the count of sequential
// ack-before-issue hops before the last install of the chain can be
// sent. Zero for plans whose installs all dispatch immediately.
func (p *Plan) CriticalPath() int { return max(p.Depth()-1, 0) }

// Layers groups the switches by layer (longest-path depth), each layer
// in node order. For a layered plan this reproduces the rounds; for a
// sparse plan it is the plan's natural display form.
func (p *Plan) Layers() [][]topo.NodeID {
	layer, depth := p.layerOf()
	out := make([][]topo.NodeID, depth)
	for i, n := range p.Nodes {
		out[layer[i]] = append(out[layer[i]], n.Switch)
	}
	return out
}

// cuts marks the plan's series cuts: cut[k] reports that every node at
// or after k has all of [0, k) in its dependency closure, so a stage
// starts at k. cut[0] holds for every non-empty plan.
func (p *Plan) cuts() []bool {
	n := len(p.Nodes)
	words := (n + 63) / 64
	closure := make([]uint64, n*words) // one row of ancestor bits per node
	for i, nd := range p.Nodes {
		ci := closure[i*words : (i+1)*words]
		for _, d := range nd.Deps {
			for w, cd := range closure[d*words : (d+1)*words] {
				ci[w] |= cd
			}
			ci[d>>6] |= 1 << (uint(d) & 63)
		}
	}
	// gap = the first index that is not an ancestor of node k (k itself
	// when all of [0, k) are). k is a cut iff no node at or after it has
	// a gap below k; gap(j) <= j bounds that suffix minimum by k, so the
	// test is equality.
	cut := make([]bool, n)
	for k, low := n-1, n; k >= 0; k-- {
		for w, c := range closure[k*words : (k+1)*words] {
			if c != ^uint64(0) {
				low = min(low, w<<6+bits.TrailingZeros64(^c))
				break
			}
		}
		cut[k] = low == k
	}
	return cut
}

// Stages splits the plan at its series cuts (see Plan) — the finest
// split into consecutive blocks such that every node of a block has
// every node of all earlier blocks in its dependency closure — and
// returns each block as a plan of its own: its nodes in order,
// re-indexed, keeping the dependencies inside the block (those into
// earlier blocks are what the cut implies). A stage is not a plan for
// Validate, which wants the whole pending set. A layered plan's stages
// are its rounds, each without an edge; a plan without a cut is its
// own single stage.
func (p *Plan) Stages() []*Plan {
	cut := p.cuts()
	m := 0
	for _, c := range cut {
		if c {
			m++
		}
	}
	if m <= 1 {
		return []*Plan{p}[:m] // itself; an empty plan has no stage
	}
	// One backing array each for the stage headers and their nodes.
	plans, nodes := make([]Plan, m), make([]PlanNode, len(p.Nodes))
	stages := make([]*Plan, 0, m)
	lo := 0
	for i, nd := range p.Nodes {
		if cut[i] {
			lo = i
			plans[len(stages)] = *p
			stages = append(stages, &plans[len(stages)])
		}
		nodes[i].Switch = nd.Switch
		for _, d := range nd.Deps {
			if d >= lo {
				nodes[i].Deps = append(nodes[i].Deps, d-lo)
			}
		}
		stages[len(stages)-1].Nodes = nodes[lo : i+1]
	}
	return stages
}

// roundShaped reports whether every stage of p is an antichain, so
// that its order ideals are exactly the round states of its stages: a
// layered plan in all but, possibly, its edge list.
func (p *Plan) roundShaped() bool {
	cut, lo := p.cuts(), 0
	for i, nd := range p.Nodes {
		if cut[i] {
			lo = i
		}
		// Deps ascend: the last one decides whether any lies inside.
		if len(nd.Deps) > 0 && nd.Deps[len(nd.Deps)-1] >= lo {
			return false
		}
	}
	return true
}

// String renders the plan shape compactly, e.g.
// "peacock[plan 7 nodes 5 edges depth 2 width 5 sparse]".
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[plan %d nodes %d edges depth %d width %d",
		p.Algorithm, p.NumNodes(), p.NumEdges(), p.Depth(), p.Width())
	if p.Sparse {
		b.WriteString(" sparse")
	}
	b.WriteByte(']')
	return b.String()
}

// Validate checks the structural contract between a plan and its
// instance: nodes are in topological order (deps sorted ascending,
// unique, strictly below the node), no switch appears twice, and the
// node set is exactly the instance's pending set. Rollback plans
// relax the last check to a subset — they uninstall only the prefix
// that had been installed when the forward plan aborted.
func (p *Plan) Validate(in *Instance) error {
	seen := in.NewState()
	for i, n := range p.Nodes {
		if err := in.cover(seen, n.Switch, "planned"); err != nil {
			return err
		}
		prev := -1
		for _, d := range n.Deps {
			if d <= prev {
				return fmt.Errorf("core: plan node %d deps not strictly ascending", i)
			}
			if d >= i {
				return fmt.Errorf("core: plan node %d depends on node %d (not topological)", i, d)
			}
			prev = d
		}
	}
	if !p.Rollback && len(p.Nodes) != in.NumPending() {
		return fmt.Errorf("core: plan covers %d of %d pending switches", len(p.Nodes), in.NumPending())
	}
	return nil
}

// cover marks pending switch v in seen for a Validate; verb names what
// the caller did with it. A repeated switch or one that needs no update
// is an error.
func (in *Instance) cover(seen State, v topo.NodeID, verb string) error {
	i := int(in.idx(v))
	if seen.Has(i) {
		return fmt.Errorf("core: switch %d %s twice", v, verb)
	}
	if !in.pendingBits.Has(i) {
		return fmt.Errorf("core: switch %d %s but needs no update", v, verb)
	}
	seen.Set(i)
	return nil
}

// Reverse builds the rollback plan for an aborted execution of p:
// installed[i] reports whether node i's FlowMod took effect before the
// abort. The installed set must be an order ideal (down-closed — a
// dependency of an installed node is itself installed); executions
// that only dispatch after all dependencies confirm produce exactly
// such prefixes. The result uninstalls the installed nodes in the
// opposite order: reverse node j undoes forward node installed[last-j],
// and depends on the (reversed positions of the) installed forward
// nodes that depended on it — each forward edge u→v with both ends
// installed becomes the reverse edge v'→u'. The reverse plan's order
// ideals are the complements (within the installed set) of the forward
// plan's sub-ideals, so every transient state of a verified rollback
// is a state the forward plan could already reach on its way up.
//
// The second result maps reverse node index to forward node index.
func (p *Plan) Reverse(installed []bool) (*Plan, []int, error) {
	if len(installed) != len(p.Nodes) {
		return nil, nil, fmt.Errorf("core: Reverse: installed covers %d of %d nodes", len(installed), len(p.Nodes))
	}
	if p.Rollback {
		return nil, nil, fmt.Errorf("core: Reverse of a rollback plan")
	}
	// Position of forward node i in the reverse plan, -1 if absent.
	pos := make([]int, len(p.Nodes))
	n := 0
	for i, nd := range p.Nodes {
		pos[i] = -1
		if !installed[i] {
			continue
		}
		for _, d := range nd.Deps {
			if !installed[d] {
				return nil, nil, fmt.Errorf("core: Reverse: installed set not down-closed: node %d (switch %d) installed but dependency %d (switch %d) is not",
					i, p.Nodes[i].Switch, d, p.Nodes[d].Switch)
			}
		}
		n++
	}
	rev := &Plan{
		Algorithm:              p.Algorithm,
		Guarantees:             p.Guarantees,
		LoopFreedomCompromised: p.LoopFreedomCompromised,
		Sparse:                 p.Sparse,
		Rollback:               true,
		Nodes:                  make([]PlanNode, 0, n),
	}
	fwd := make([]int, 0, n)
	// Emit installed nodes in descending forward order: every forward
	// successor (index > i) lands at a smaller reverse index, keeping
	// the topological invariant.
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !installed[i] {
			continue
		}
		pos[i] = len(rev.Nodes)
		rev.Nodes = append(rev.Nodes, PlanNode{Switch: p.Nodes[i].Switch})
		fwd = append(fwd, i)
	}
	// Reverse each installed forward edge d→i into i'→d' (reverse node
	// pos[d] depends on pos[i]). Forward deps are ascending in d, so
	// walking nodes in forward order appends each reverse node's deps
	// in descending pos[i] order... collect then sort.
	for i, nd := range p.Nodes {
		if !installed[i] {
			continue
		}
		for _, d := range nd.Deps {
			rn := &rev.Nodes[pos[d]]
			rn.Deps = append(rn.Deps, pos[i])
		}
	}
	for j := range rev.Nodes {
		sortedUniqueInts(&rev.Nodes[j].Deps)
	}
	return rev, fwd, nil
}

// BaseState returns the network state a rollback plan starts from: all
// switches the plan covers marked updated. An ideal I of the rollback
// plan corresponds to network state BaseState∖I.
func (p *Plan) BaseState(in *Instance) State {
	s := in.NewState()
	for _, nd := range p.Nodes {
		if i := in.NodeIndex(nd.Switch); i >= 0 {
			s.Set(i)
		}
	}
	return s
}

// PlanRun is the reusable bookkeeping of an ack-driven dispatcher over
// a plan's DAG: it tracks per-node unmet-dependency counts and hands
// out newly released nodes as completions arrive. The successor
// adjacency is flattened at construction; Reset and Complete allocate
// nothing (callers pass and reuse the ready buffer), so the per-barrier
// hot path of the controller engine — and of the explorer's sampled
// linear extensions — is allocation-free in steady state.
//
// A PlanRun is single-goroutine state; the engine serializes
// completions through its ack loop before touching it.
type PlanRun struct {
	numDeps   []int32
	succStart []int32
	succ      []int32
	indeg     []int32
}

// NewPlanRun builds dispatch bookkeeping for the plan. The returned
// run is unstarted; call Reset before the first Complete.
func NewPlanRun(p *Plan) *PlanRun {
	n := len(p.Nodes)
	r := &PlanRun{
		numDeps:   make([]int32, n),
		succStart: make([]int32, n+1),
		indeg:     make([]int32, n),
	}
	for i, nd := range p.Nodes {
		r.numDeps[i] = int32(len(nd.Deps))
		for _, d := range nd.Deps {
			r.succStart[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		r.succStart[i+1] += r.succStart[i]
	}
	r.succ = make([]int32, r.succStart[n])
	fill := make([]int32, n)
	copy(fill, r.succStart[:n])
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			r.succ[fill[d]] = int32(i)
			fill[d]++
		}
	}
	return r
}

// Reset re-arms the run and appends the initially released nodes (no
// dependencies) to ready, returning the extended slice. With a
// pre-grown buffer it does not allocate.
func (r *PlanRun) Reset(ready []int) []int {
	copy(r.indeg, r.numDeps)
	for i, d := range r.indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	return ready
}

// Complete records node i's barrier reply and appends every node it
// releases (dependencies now all confirmed) to ready, returning the
// extended slice. With a pre-grown buffer it does not allocate.
func (r *PlanRun) Complete(i int, ready []int) []int {
	for _, s := range r.succ[r.succStart[i]:r.succStart[i+1]] {
		r.indeg[s]--
		if r.indeg[s] == 0 {
			ready = append(ready, int(s))
		}
	}
	return ready
}

// maxSparseCheckStates bounds the exhaustive walk-property proof
// SparsePlan runs on a derived plan; larger ideal spaces rest on the
// walk-projection argument plus a seeded sampled spot-check.
const maxSparseCheckStates = 1 << 20

// sparseSpotSamples is the number of seeded linear extensions the
// spot-check replays when the ideal space exceeds the exhaustive
// budget.
const sparseSpotSamples = 64

// SparsePlan derives a sparse dependency plan from the layered plan of
// a round schedule, using the dependency reasoning the walk-based
// schedulers (Peacock, GreedySLF) already encode, then proves it safe
// before returning it:
//
//   - Rule-availability edges: a switch v that is on the old path
//     depends on every new-path-only switch along its new-rule chain
//     (the maximal run of new-only pending switches its new successor
//     chain enters). Those are the only switches that can transiently
//     lack a rule, and v's flip is what routes the forwarding walk
//     into them — nothing else ever reaches them, so no other
//     ordering involving them is needed (Peacock's L1).
//   - Ordering edges: the walk-relevant switches (those on the old
//     path) keep exactly the relative order the rounds gave them —
//     each depends on every walk-relevant switch of the previous
//     walk-relevant round. Projected onto these switches, the plan's
//     order ideals are therefore precisely the round states, so the
//     scheduler's own per-round safety argument (L2's forward
//     landings, GreedySLF's double-edge test) carries over.
//
// What the derivation drops is the global barrier: a new-only switch
// no longer gates unrelated branches, only the consumer whose chain
// needs its rule.
//
// Soundness. In any order ideal S of the derived DAG the forwarding
// walk equals the walk of a reachable round state: the walk enters a
// new-only chain only through its flipped consumer, whose chain edges
// force the whole chain into S (down-closure), so the walk is a
// function of S's walk-relevant projection — and the ordering edges
// make that projection exactly a round prefix plus a subset of one
// round. Every walk-based guarantee (blackhole, relaxed loop freedom,
// waypoint) therefore carries over from the rounds. Strong loop
// freedom additionally constrains rules at unreachable switches, where
// early new-only flips add edges round semantics delayed; SparsePlan
// decides it with the polynomial double-edge test per walk-relevant
// round, with every new-only switch modelled as permanently in flight
// (a superset of the reachable rule graphs). The walk properties are
// additionally proven exhaustively — every order ideal through
// Walker.Check — whenever the ideal space fits the budget, and
// spot-checked over seeded linear extensions past it.
//
// SparsePlan is the one place that decides which rounds justify the
// derivation: only a layered Peacock or GreedySLF plan is pruned. Any
// other plan comes back unchanged, and so does a layered one whose
// derivation prunes nothing or fails a check — SparsePlan never
// weakens the plan's contract.
func SparsePlan(in *Instance, p *Plan) *Plan {
	if p.Algorithm != AlgoPeacock && p.Algorithm != AlgoGreedySLF || !p.isLayered() {
		return p
	}
	if sparse := deriveSparse(in, p); sparse != nil {
		return sparse
	}
	return p
}

// deriveSparse is SparsePlan's derivation and proof on the layered
// plan p; nil when p has no sparse plan that is valid, prunes an edge
// and is provably safe.
func deriveSparse(in *Instance, p *Plan) *Plan {
	n := len(p.Nodes)
	if n == 0 {
		return nil
	}
	sparse := &Plan{
		Algorithm:              p.Algorithm,
		Guarantees:             p.Guarantees,
		LoopFreedomCompromised: p.LoopFreedomCompromised,
		Sparse:                 true,
		Nodes:                  make([]PlanNode, 0, n),
	}
	// nodeAt is the plan node of each scheduled switch, by dense
	// instance index; -1 until its round came up.
	nodeAt := make([]int32, in.NumNodes())
	for i := range nodeAt {
		nodeAt[i] = -1
	}
	// Every node's deps are cut from one arena (earlier cuts stay valid
	// when it grows).
	arena := make([]int, 0, 2*n)
	// prevWalk tracks the node indices of the last round that
	// contained walk-relevant switches.
	var prevWalk, curWalk []int
	for i, nd := range p.Nodes {
		if p.OpensRound(i) {
			if len(curWalk) > 0 {
				prevWalk = append(prevWalk[:0], curWalk...)
			}
			curWalk = curWalk[:0]
		}
		v := nd.Switch
		vi := in.idx(v)
		if vi < 0 {
			return nil // not this instance's plan
		}
		nodeAt[vi] = int32(i)
		start := len(arena)
		if !in.newOnlyIdx(vi) {
			arena = append(arena, prevWalk...)
			// Rule-availability: follow v's new-rule chain through
			// new-only pending switches.
			for w := in.newSuccIdx[vi]; w >= 0 && in.newOnlyIdx(w) && in.pendingBits.Has(int(w)); w = in.newSuccIdx[w] {
				if j := nodeAt[w]; j >= 0 {
					arena = append(arena, int(j))
				}
			}
			curWalk = append(curWalk, i)
		}
		deps := arena[start:]
		sortedUniqueInts(&deps)
		arena = arena[:start+len(deps)]
		if deps = deps[:len(deps):len(deps)]; len(deps) == 0 {
			deps = nil
		}
		sparse.Nodes = append(sparse.Nodes, PlanNode{Switch: v, Deps: deps})
	}
	if err := sparse.Validate(in); err != nil {
		return nil
	}
	if sparse.roundShaped() {
		// No edge was actually pruned; keep the canonical layered form.
		return nil
	}
	if !sparseSafe(in, sparse, p) {
		return nil
	}
	return sparse
}

// sparseSafe decides whether the derived sparse plan provably keeps
// the layered plan's guarantees (see the soundness note on SparsePlan).
func sparseSafe(in *Instance, sparse, layered *Plan) bool {
	props := layered.Guarantees
	if props == 0 {
		return true
	}
	if props.Has(StrongLoopFreedom) && !sparseStrongLFSafe(in, layered) {
		return false
	}
	walkProps := props &^ StrongLoopFreedom
	if walkProps == 0 {
		return true
	}
	// Past the exhaustive budget, soundness rests on the
	// walk-projection argument; the seeded spot-check guards the
	// implementation.
	return in.NewWalker().CheckStage(nil, sparse, walkProps, maxSparseCheckStates, sparseSpotSamples, 1).Violation == nil
}

// sparseStrongLFSafe runs the polynomial double-edge test per
// walk-relevant round of the layered plan p with every new-only
// pending switch modelled as permanently in flight — a superset of the
// rule graphs any sparse ideal can produce (removing a new-only
// switch's rule only removes edges), so passing proves strong loop
// freedom for the sparse plan.
func sparseStrongLFSafe(in *Instance, p *Plan) bool {
	var newOnly []topo.NodeID
	for _, v := range in.Pending() {
		if in.NewOnly(v) {
			newOnly = append(newOnly, v)
		}
	}
	done := in.NewState()
	inflight := make([]topo.NodeID, 0, in.NumPending())
	for lo := 0; lo < len(p.Nodes); {
		hi := lo + 1
		for hi < len(p.Nodes) && !p.OpensRound(hi) {
			hi++
		}
		inflight = inflight[:0]
		for _, nd := range p.Nodes[lo:hi] {
			if !in.NewOnly(nd.Switch) {
				inflight = append(inflight, nd.Switch)
			}
		}
		lo = hi
		if len(inflight) == 0 {
			continue
		}
		walkCount := len(inflight)
		inflight = append(inflight, newOnly...)
		if !in.RoundSafeStrongLF(done, inflight) {
			return false
		}
		in.Mark(done, inflight[:walkCount]...)
	}
	return true
}

// sortedUniqueInts sorts *xs ascending and removes duplicates in place.
func sortedUniqueInts(xs *[]int) {
	s := *xs
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	*xs = out
}

// IdealStates enumerates the plan's reachable transient states as
// instance States, ascending by (popcount, node-index mask) — the
// analogue of enumerating a round's subsets. Intended for tests and
// small plans; it materializes every ideal. Plans with more than 64
// nodes return nil.
func (p *Plan) IdealStates(in *Instance) []State {
	if len(p.Nodes) > 64 {
		return nil
	}
	var masks []uint64
	var cur uint64
	p.VisitIdeals(
		func(node int, on bool) {
			if on {
				cur |= 1 << uint(node)
			} else {
				cur &^= 1 << uint(node)
			}
		},
		func() bool {
			masks = append(masks, cur)
			return true
		})
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0 && idealLess(masks[j], masks[j-1]); j-- {
			masks[j-1], masks[j] = masks[j], masks[j-1]
		}
	}
	out := make([]State, len(masks))
	for k, m := range masks {
		st := in.NewState()
		for i := 0; i < len(p.Nodes); i++ {
			if m&(1<<uint(i)) != 0 {
				in.Mark(st, p.Nodes[i].Switch)
			}
		}
		out[k] = st
	}
	return out
}

func idealLess(a, b uint64) bool {
	ca, cb := bits.OnesCount64(a), bits.OnesCount64(b)
	if ca != cb {
		return ca < cb
	}
	return a < b
}
