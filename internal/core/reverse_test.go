package core

import (
	"fmt"
	"testing"

	"tsu/internal/topo"
)

// fig1Plan builds the Peacock execution plan for the Fig. 1 instance.
func fig1Plan(t *testing.T) (*Instance, *Plan) {
	t.Helper()
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, sched
}

func TestReverseFullPlan(t *testing.T) {
	in, p := fig1Plan(t)
	installed := make([]bool, len(p.Nodes))
	for i := range installed {
		installed[i] = true
	}
	rev, fwd, err := p.Reverse(installed)
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Rollback {
		t.Fatal("reverse plan not marked Rollback")
	}
	if len(rev.Nodes) != len(p.Nodes) || len(fwd) != len(p.Nodes) {
		t.Fatalf("reverse covers %d nodes, want %d", len(rev.Nodes), len(p.Nodes))
	}
	// fwd maps reverse positions back to forward nodes, same switch.
	for j, fi := range fwd {
		if rev.Nodes[j].Switch != p.Nodes[fi].Switch {
			t.Fatalf("reverse node %d is switch %d, forward node %d is switch %d",
				j, rev.Nodes[j].Switch, fi, p.Nodes[fi].Switch)
		}
	}
	// Structurally valid (subset coverage allowed for rollback plans).
	if err := rev.Validate(in); err != nil {
		t.Fatalf("reverse plan invalid: %v", err)
	}
	// Every forward edge d→i must appear reversed: pos[d] depends on
	// pos[i].
	pos := make(map[int]int, len(fwd))
	for j, fi := range fwd {
		pos[fi] = j
	}
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			found := false
			for _, rd := range rev.Nodes[pos[d]].Deps {
				if rd == pos[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("forward edge %d→%d has no reverse edge %d→%d", d, i, pos[i], pos[d])
			}
		}
	}
	if rev.NumEdges() != p.NumEdges() {
		t.Fatalf("reverse has %d edges, forward has %d", rev.NumEdges(), p.NumEdges())
	}
}

func TestReverseRejectsNonIdeal(t *testing.T) {
	_, p := fig1Plan(t)
	var dep = -1
	for i := range p.Nodes {
		if len(p.Nodes[i].Deps) > 0 {
			dep = i
			break
		}
	}
	if dep < 0 {
		t.Skip("plan has no dependencies")
	}
	installed := make([]bool, len(p.Nodes))
	installed[dep] = true // its dependency is not installed
	if _, _, err := p.Reverse(installed); err == nil {
		t.Fatal("Reverse accepted a non-down-closed installed set")
	}
}

func TestReverseRejectsBadInput(t *testing.T) {
	_, p := fig1Plan(t)
	if _, _, err := p.Reverse(make([]bool, len(p.Nodes)+1)); err == nil {
		t.Fatal("Reverse accepted a wrong-length installed set")
	}
	full := make([]bool, len(p.Nodes))
	rev, _, err := p.Reverse(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Nodes) != 0 {
		t.Fatalf("reverse of empty prefix has %d nodes", len(rev.Nodes))
	}
	for i := range full {
		full[i] = true
	}
	rev, _, err = p.Reverse(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rev.Reverse(full); err == nil {
		t.Fatal("Reverse of a rollback plan succeeded")
	}
}

// TestReverseIdealCorrespondence pins the safety argument: every order
// ideal I of the reverse plan of an installed prefix corresponds to
// network state base∖I, and that state is an order ideal of the
// forward plan — rolling back never visits a transient state the
// forward plan could not already reach.
func TestReverseIdealCorrespondence(t *testing.T) {
	in, p := fig1Plan(t)
	forward := make(map[string]bool)
	for _, st := range p.IdealStates(in) {
		forward[fmt.Sprint(st)] = true
	}

	for _, prefix := range []int{len(p.Nodes), len(p.Nodes) / 2, 1} {
		// Plan nodes are topologically ordered (deps strictly below), so
		// every index prefix is down-closed.
		installed := make([]bool, len(p.Nodes))
		for i := 0; i < prefix; i++ {
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		base := rev.BaseState(in)
		cur := base.Clone()
		ideals := 0
		rev.VisitIdeals(
			func(node int, on bool) {
				i := in.NodeIndex(rev.Nodes[node].Switch)
				if on {
					cur.Clear(i) // rollback ideal member = uninstalled
				} else {
					cur.Set(i)
				}
			},
			func() bool {
				ideals++
				if !forward[fmt.Sprint(cur)] {
					t.Errorf("prefix %d: rollback reaches state %v outside the forward ideal set", prefix, cur)
					return false
				}
				return true
			})
		if t.Failed() {
			t.Fatalf("prefix %d: rollback state space not contained in forward's (after %d ideals)", prefix, ideals)
		}
	}
}
