//go:build !race

package core

import (
	"testing"

	"tsu/internal/topo"
)

// TestWalkAllocs pins the forwarding-walk allocation budget:
// Instance.Walk allocates exactly the returned path (≤ 1 alloc), and
// the Walker's incremental Flip/Check cycle allocates nothing — the
// hot loops of the explorer and verifier run allocation-free.
func TestWalkAllocs(t *testing.T) {
	ti := topo.Reversal(64)
	in := MustInstance(ti.Old, ti.New, 0)
	pending := in.Pending()
	st := in.StateOf(pending[:len(pending)/2]...)

	if got := testing.AllocsPerRun(200, func() {
		in.Walk(st)
	}); got > 1 {
		t.Fatalf("Instance.Walk = %.1f allocs/op, want <= 1 (the returned path)", got)
	}

	props := NoBlackhole | RelaxedLoopFreedom | StrongLoopFreedom
	w := in.NewWalker()
	w.Reset(nil)
	i := in.NodeIndex(pending[len(pending)/2])
	if got := testing.AllocsPerRun(200, func() {
		w.Flip(i)
		w.Check(props)
		w.Flip(i)
		w.Check(props)
	}); got != 0 {
		t.Fatalf("Walker Flip+Check = %.1f allocs/op, want 0", got)
	}

	rc := NewRoundChecker()
	s, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	done, round := in.NewState(), s.Layers()[0]
	rc.Check(in, done, round, NoBlackhole|RelaxedLoopFreedom, 0) // warm the buffers
	if got := testing.AllocsPerRun(200, func() {
		rc.Check(in, done, round, NoBlackhole|RelaxedLoopFreedom, 0)
	}); got != 0 {
		t.Fatalf("RoundChecker.Check (safe round) = %.1f allocs/op, want 0", got)
	}
}

// TestPlanRunAllocs pins the ack-driven dispatcher's per-barrier hot
// path at zero steady-state allocations: with the successor adjacency
// flattened at construction and the ready buffer pre-grown, a full
// Reset-and-drain cycle over the plan — one Complete per barrier
// reply — allocates nothing.
func TestPlanRunAllocs(t *testing.T) {
	ti := topo.Reversal(64)
	in := MustInstance(ti.Old, ti.New, 0)
	s, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	p := SparsePlan(in, s)
	run := NewPlanRun(p)
	ready := make([]int, 0, p.NumNodes())
	queue := make([]int, 0, p.NumNodes())
	drain := func() {
		ready = run.Reset(ready[:0])
		queue = append(queue[:0], ready...)
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ready = run.Complete(i, ready[:0])
			queue = append(queue, ready...)
		}
	}
	drain() // warm the buffers
	if got := testing.AllocsPerRun(200, drain); got != 0 {
		t.Fatalf("PlanRun Reset+Complete drain = %.1f allocs/op, want 0", got)
	}
}

// TestPlanningAllocs pins the planning half of a submitted update —
// index the instance, schedule it, derive and validate its plan — at a
// handful of allocations each: what the results themselves need, and
// nothing per switch. The NodeID-keyed maps these steps used to build
// and drop cost 55 / 27 / 159 allocations on this instance.
func TestPlanningAllocs(t *testing.T) {
	ti := topo.Reversal(64)
	// The instance, its NodeID array, its int32 tables, its pending bits.
	if got := testing.AllocsPerRun(100, func() { MustInstance(ti.Old, ti.New, 0) }); got > 4 {
		t.Fatalf("NewInstance = %.1f allocs/op, want <= 4", got)
	}
	in := MustInstance(ti.Old, ti.New, 0)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Peacock(in); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Fatalf("Peacock = %.1f allocs/op, want <= 10", got)
	}
	s, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := SparsePlan(in, s).Validate(in); err != nil {
			t.Fatal(err)
		}
	}); got > 40 {
		t.Fatalf("SparsePlan + Validate = %.1f allocs/op, want <= 40", got)
	}
}
