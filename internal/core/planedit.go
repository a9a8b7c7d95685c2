package core

import (
	"fmt"
	"slices"

	"tsu/internal/topo"
)

// PlanDraft is a mutable happens-before graph over an instance's
// pending switches — the object a plan synthesizer refines. It starts
// with no edges (install everything concurrently; the ideal space is
// the full powerset) and grows one dependency at a time: adding the
// edge u→v removes from the reachable ideal space exactly the ideals
// that contain v but not u, and removes nothing else. Because every
// reachable transient state of the emitted Plan is an order ideal,
// each accepted counterexample ideal is eliminated permanently by one
// blocking edge — the monotone-progress argument behind the CEGIS
// loop in internal/synth, which also bounds it to at most
// k·(k-1)/2 refinements.
//
// Draft node indices are fixed at construction (Instance.Pending
// order) and independent of the topological positions the emitted
// Plan assigns; Plan() returns the mapping via its node order.
type PlanDraft struct {
	in    *Instance
	nodes []topo.NodeID
	pred  [][]int // pred[v]: draft indices that must complete before v
	succ  [][]int
}

// NewPlanDraft returns the edgeless draft over in's pending switches.
func NewPlanDraft(in *Instance) *PlanDraft {
	nodes := in.Pending()
	return &PlanDraft{
		in:    in,
		nodes: nodes,
		pred:  make([][]int, len(nodes)),
		succ:  make([][]int, len(nodes)),
	}
}

// Switch returns the switch at draft index i.
func (d *PlanDraft) Switch(i int) topo.NodeID { return d.nodes[i] }

// IndexOf returns the draft index of switch v, or -1 when v is not a
// pending switch.
func (d *PlanDraft) IndexOf(v topo.NodeID) int { return slices.Index(d.nodes, v) }

// HasEdge reports whether the direct edge u→v is present.
func (d *PlanDraft) HasEdge(u, v int) bool {
	for _, p := range d.pred[v] {
		if p == u {
			return true
		}
	}
	return false
}

// reaches reports whether v is reachable from u along happens-before
// edges (u itself counts).
func (d *PlanDraft) reaches(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(d.nodes))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range d.succ[w] {
			if s == v {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// AddEdge adds the happens-before edge u→v ("u's barrier before v's
// FlowMod"). It rejects self-loops, duplicates, and edges that would
// close a cycle.
func (d *PlanDraft) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("core: draft edge %d->%d is a self-loop", u, v)
	}
	if u < 0 || v < 0 || u >= len(d.nodes) || v >= len(d.nodes) {
		return fmt.Errorf("core: draft edge %d->%d out of range [0,%d)", u, v, len(d.nodes))
	}
	if d.HasEdge(u, v) {
		return fmt.Errorf("core: draft edge %d->%d already present", u, v)
	}
	if d.reaches(v, u) {
		return fmt.Errorf("core: draft edge %d->%d would close a cycle", u, v)
	}
	d.pred[v] = append(d.pred[v], u)
	d.succ[u] = append(d.succ[u], v)
	return nil
}

// depthWith returns the plan depth (longest happens-before chain, in
// installs) with the extra edge eu→ev injected; pass (-1, -1) for the
// current depth. The draft is guaranteed acyclic, so plain memoized
// recursion over predecessors suffices.
func (d *PlanDraft) depthWith(eu, ev int) int {
	n := len(d.nodes)
	if n == 0 {
		return 0
	}
	memo := make([]int, n)
	for i := range memo {
		memo[i] = -1
	}
	var height func(v int) int
	height = func(v int) int {
		if memo[v] >= 0 {
			return memo[v]
		}
		h := 0
		for _, u := range d.pred[v] {
			if hu := height(u) + 1; hu > h {
				h = hu
			}
		}
		if v == ev {
			if hu := height(eu) + 1; hu > h {
				h = hu
			}
		}
		memo[v] = h
		return h
	}
	depth := 0
	for v := 0; v < n; v++ {
		if h := height(v) + 1; h > depth {
			depth = h
		}
	}
	return depth
}

// Depth returns the current plan depth (longest chain, in installs).
func (d *PlanDraft) Depth() int { return d.depthWith(-1, -1) }

// DepthWithEdge returns the depth the draft would have after
// AddEdge(u, v), without mutating it — the synthesizer's candidate
// scoring primitive.
func (d *PlanDraft) DepthWithEdge(u, v int) int { return d.depthWith(u, v) }

// Plan emits the draft as a Plan in deterministic topological order
// (Kahn's algorithm, smallest ready draft index first). The result is
// marked Sparse unless its dependency closure happens to be layered,
// in which case the canonical layered form is kept — so the edgeless
// draft emits the one-round concurrent plan and downstream layered
// fast paths still apply.
func (d *PlanDraft) Plan(algorithm string, guarantees Property) *Plan {
	n := len(d.nodes)
	indeg := make([]int, n)
	for v := range d.pred {
		indeg[v] = len(d.pred[v])
	}
	placed := make([]bool, n)
	pos := make([]int, n) // draft index -> plan position
	order := make([]int, 0, n)
	for len(order) < n {
		m := -1
		for v := 0; v < n; v++ {
			if !placed[v] && indeg[v] == 0 {
				m = v
				break
			}
		}
		if m == -1 {
			// Unreachable: AddEdge keeps the draft acyclic.
			panic("core: PlanDraft cycle")
		}
		placed[m] = true
		pos[m] = len(order)
		order = append(order, m)
		for _, s := range d.succ[m] {
			indeg[s]--
		}
	}
	p := &Plan{
		Algorithm:  algorithm,
		Guarantees: guarantees,
		Sparse:     true,
		Nodes:      make([]PlanNode, n),
	}
	for k, v := range order {
		var deps []int
		if len(d.pred[v]) > 0 {
			deps = make([]int, 0, len(d.pred[v]))
			for _, u := range d.pred[v] {
				deps = append(deps, pos[u])
			}
			sortedUniqueInts(&deps)
		}
		p.Nodes[k] = PlanNode{Switch: d.nodes[v], Deps: deps}
	}
	if p.roundShaped() {
		p.Sparse = false
	}
	return p
}

// BlockingEdges maps a violating order ideal back to the candidate
// happens-before edges that eliminate it: every returned pair (u, v)
// has v ∈ ideal and u ∉ ideal, so after AddEdge(u, v) no reachable
// ideal contains the violating set again. ideal holds draft indices
// and must be down-closed under the current edges (any ideal the
// emitted Plan can reach is). Candidates prefer v maximal in the
// ideal — blocking the last flip that completed the bad state — and
// widen to every v ∈ ideal only when all maximal choices would close
// a cycle. Pairs are emitted in deterministic (v, u) ascending order,
// capped at max when max > 0; an empty result means the ideal cannot
// be blocked without a cycle (a refinement dead end).
func (d *PlanDraft) BlockingEdges(ideal []int, max int) [][2]int {
	n := len(d.nodes)
	inIdeal := make([]bool, n)
	for _, v := range ideal {
		inIdeal[v] = true
	}
	collect := func(maximalOnly bool) [][2]int {
		var out [][2]int
		for _, v := range ideal {
			if maximalOnly {
				// v is maximal iff no direct successor is in the ideal;
				// down-closure makes the direct-edge test equivalent to
				// the reachability one.
				maximal := true
				for _, s := range d.succ[v] {
					if inIdeal[s] {
						maximal = false
						break
					}
				}
				if !maximal {
					continue
				}
			}
			for u := 0; u < n; u++ {
				if inIdeal[u] || d.HasEdge(u, v) || d.reaches(v, u) {
					continue
				}
				out = append(out, [2]int{u, v})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
		return out
	}
	// ideal is in oracle order (ascending); candidate order must not
	// depend on it.
	sorted := append([]int(nil), ideal...)
	sortedUniqueInts(&sorted)
	ideal = sorted
	if out := collect(true); len(out) > 0 {
		return out
	}
	return collect(false)
}
