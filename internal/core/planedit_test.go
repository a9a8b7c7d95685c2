package core

import (
	"testing"

	"tsu/internal/topo"
)

func TestPlanDraftAddEdge(t *testing.T) {
	in := fig1Instance(t)
	d := NewPlanDraft(in)
	if len(d.nodes) != len(in.Pending()) {
		t.Fatalf("draft has %d nodes, want %d", len(d.nodes), len(in.Pending()))
	}
	if draftEdges(d) != 0 || d.Depth() != 1 {
		t.Fatalf("empty draft: edges=%d depth=%d, want 0 and 1", draftEdges(d), d.Depth())
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatalf("AddEdge(1,2): %v", err)
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("HasEdge direction confused")
	}
	if d.Depth() != 3 {
		t.Fatalf("depth after chain = %d, want 3", d.Depth())
	}
	for _, bad := range [][2]int{{2, 0}, {1, 1}, {0, 1}, {-1, 0}, {0, len(d.nodes)}} {
		if err := d.AddEdge(bad[0], bad[1]); err == nil {
			t.Errorf("AddEdge(%d,%d) accepted; want cycle/self-loop/dup/range error", bad[0], bad[1])
		}
	}
	if draftEdges(d) != 2 {
		t.Fatalf("rejected edges mutated draft: %d edges", draftEdges(d))
	}
}

func TestPlanDraftDepthWithEdge(t *testing.T) {
	in := fig1Instance(t)
	d := NewPlanDraft(in)
	if got := d.DepthWithEdge(0, 1); got != 2 {
		t.Fatalf("DepthWithEdge(0,1) on empty draft = %d, want 2", got)
	}
	// Probing must not mutate.
	if draftEdges(d) != 0 || d.Depth() != 1 {
		t.Fatal("DepthWithEdge mutated the draft")
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.DepthWithEdge(1, 2); got != 3 {
		t.Fatalf("DepthWithEdge(1,2) = %d, want 3", got)
	}
	// A parallel constraint at the same level keeps depth flat.
	if got := d.DepthWithEdge(0, 2); got != 2 {
		t.Fatalf("DepthWithEdge(0,2) = %d, want 2", got)
	}
}

func TestPlanDraftPlan(t *testing.T) {
	in := fig1Instance(t)
	d := NewPlanDraft(in)
	if err := d.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(3, 1); err != nil {
		t.Fatal(err)
	}
	p := d.Plan(AlgoSynth, NoBlackhole)
	if err := p.Validate(in); err != nil {
		t.Fatalf("draft plan invalid: %v", err)
	}
	if p.NumEdges() != 2 || p.Depth() != 2 {
		t.Fatalf("plan edges=%d depth=%d, want 2 and 2", p.NumEdges(), p.Depth())
	}
	// The emitted dependencies must express exactly the draft edges:
	// the node for draft index 0 depends on the node for draft index 3.
	idx := make(map[topo.NodeID]int, p.NumNodes())
	for i, nd := range p.Nodes {
		idx[nd.Switch] = i
	}
	n0 := p.Nodes[idx[d.Switch(0)]]
	if len(n0.Deps) != 1 || p.Nodes[n0.Deps[0]].Switch != d.Switch(3) {
		t.Fatalf("node %v deps = %v, want exactly its draft predecessor %v", n0.Switch, n0.Deps, d.Switch(3))
	}
}

func TestPlanDraftBlockingEdges(t *testing.T) {
	in := fig1Instance(t)
	d := NewPlanDraft(in)
	ideal := []int{0, 2}
	cands := d.BlockingEdges(ideal, 0)
	if len(cands) == 0 {
		t.Fatal("no blocking edges for non-full ideal on empty draft")
	}
	inIdeal := map[int]bool{0: true, 2: true}
	seen := map[[2]int]bool{}
	for _, e := range cands {
		u, v := e[0], e[1]
		if inIdeal[u] || !inIdeal[v] {
			t.Fatalf("candidate %v->%v does not block ideal {0,2}", u, v)
		}
		if seen[e] {
			t.Fatalf("duplicate candidate %v", e)
		}
		seen[e] = true
	}
	// Capping keeps the deterministic prefix.
	capped := d.BlockingEdges(ideal, 2)
	if len(capped) != 2 || capped[0] != cands[0] || capped[1] != cands[1] {
		t.Fatalf("capped candidates %v are not a prefix of %v", capped, cands[:2])
	}
	// Existing and cycle-forming edges are excluded.
	if err := d.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, e := range d.BlockingEdges([]int{0}, 0) {
		if e == [2]int{1, 0} {
			t.Fatal("existing edge offered as candidate")
		}
		if e[0] == 0 {
			t.Fatal("cycle-forming candidate offered")
		}
	}
}

// draftEdges counts the draft's happens-before edges.
func draftEdges(d *PlanDraft) int {
	n := 0
	for _, p := range d.pred {
		n += len(p)
	}
	return n
}
