package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/topo"
)

func fig1Instance(t *testing.T) *Instance {
	t.Helper()
	return MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
}

// TestLayeredRoundTrip pins rounds as a lossless view of a layered
// plan: every registered scheduler's plan is layered (round-shaped,
// in Layered's form, its own layered view), Layers() gives its rounds
// back, Layered rebuilds the same plan from them, and the plan's shape
// is the rounds'.
func TestLayeredRoundTrip(t *testing.T) {
	in := fig1Instance(t)
	for _, name := range Names() {
		p, err := MustScheduler(name).Plan(in, 0)
		if err != nil {
			if name == AlgoGreedySLF {
				continue // may stall; not under test here
			}
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("%s: layered plan invalid: %v", name, err)
		}
		if !p.roundShaped() || !p.isLayered() || p.LayeredView() != p {
			t.Fatalf("%s: layered plan not detected as layered", name)
		}
		rounds := p.Layers()
		q := Layered(p.Algorithm, p.Guarantees, rounds)
		q.LoopFreedomCompromised = p.LoopFreedomCompromised
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("%s: Layered(rounds) = %+v, want %+v", name, q, p)
		}
		if p.Depth() != len(rounds) {
			t.Fatalf("%s: depth %d, want round count %d", name, p.Depth(), len(rounds))
		}
		wantWidth := 0
		for _, r := range rounds {
			wantWidth = max(wantWidth, len(r))
		}
		if p.Width() != wantWidth {
			t.Fatalf("%s: width %d, want %d", name, p.Width(), wantWidth)
		}
		if p.CriticalPath() != len(rounds)-1 {
			t.Fatalf("%s: critical path %d, want %d", name, p.CriticalPath(), len(rounds)-1)
		}
	}
}

// assertStageIdeals holds Stages against the reference enumerator: the
// plan's order ideals (IdealStates) are exactly "all earlier stages
// plus an ideal of stage k", over all k, with each stage-boundary state
// met once per side. It returns the stage count.
func assertStageIdeals(t *testing.T, in *Instance, p *Plan) int {
	t.Helper()
	want := map[string]bool{}
	for _, st := range p.IdealStates(in) {
		want[stateKey(st)] = true
	}
	stages := p.Stages()
	got, total, nodes := map[string]bool{}, 0, 0
	earlier := in.NewState()
	for _, sub := range stages {
		for _, st := range sub.IdealStates(in) {
			for w := range st {
				st[w] |= earlier[w]
			}
			got[stateKey(st)] = true
			total++
		}
		for _, nd := range sub.Nodes {
			in.Mark(earlier, nd.Switch)
		}
		nodes += len(sub.Nodes)
	}
	if nodes != len(p.Nodes) || total != len(want)+len(stages)-1 || len(got) != len(want) {
		t.Fatalf("%s: %d stages hold %d nodes and %d ideals (%d distinct), want %d nodes and %d ideals + one per cut",
			p, len(stages), nodes, total, len(got), len(p.Nodes), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: an order ideal is no stage's", p)
		}
	}
	return len(stages)
}

// TestStagesOfLayeredPlansAreRounds pins the state-space equivalence
// the whole plan layer rests on, for every registry scheduler on Fig.1,
// a comb and 200 seeded random two-path instances: the stages of a
// schedule's layered plan are its rounds, none with an inner edge — so
// its order ideals are exactly the reachable round states (completed
// rounds plus any subset of one in-flight round), which the small
// instances also check against the reference enumerator.
func TestStagesOfLayeredPlansAreRounds(t *testing.T) {
	comb := topo.Comb(3, 4)
	ins := []*Instance{
		fig1Instance(t),
		MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0),
		MustInstance(comb.Old, comb.New, 0),
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(20), i%2 == 0)
		ins = append(ins, MustInstance(ti.Old, ti.New, ti.Waypoint))
	}
	checked := 0
	for _, in := range ins {
		for _, name := range Names() {
			sch := MustScheduler(name)
			if in.NumPending() == 0 || !sch.Applicable(in) {
				continue
			}
			p, err := sch.Plan(in, 0)
			if err != nil {
				continue // the scheduler declined the instance
			}
			var got [][]topo.NodeID
			for _, sub := range p.Stages() {
				if sub.NumEdges() != 0 || sub.Algorithm != p.Algorithm || sub.Guarantees != p.Guarantees {
					t.Fatalf("%s on %v: stage %s of a layered plan", name, in, sub)
				}
				var round []topo.NodeID
				for _, nd := range sub.Nodes {
					round = append(round, nd.Switch)
				}
				got = append(got, round)
			}
			if !reflect.DeepEqual(got, p.Layers()) {
				t.Fatalf("%s on %v: stages %v, want the rounds %v", name, in, got, p.Layers())
			}
			if in.NumPending() <= 12 {
				assertStageIdeals(t, in, p)
			}
			checked++
		}
	}
	if checked < 600 {
		t.Fatalf("only %d schedules checked", checked)
	}
}

// TestStagesCoverIdeals property-tests Stages on 200 random DAGs built
// through PlanDraft.AddEdge (n ≤ 12; half of them with a random series
// composition forced in, so cuts are common) and on the Reverse of a
// random installed prefix of each: stage by stage they enumerate
// exactly the plan's order ideals.
func TestStagesCoverIdeals(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	plans, cut, cutRev := 0, 0, 0
	for plans < 200 {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(12), false)
		in := MustInstance(ti.Old, ti.New, 0)
		n := in.NumPending()
		if n < 2 || n > 12 {
			continue
		}
		plans++
		d := NewPlanDraft(in)
		if plans%2 == 0 {
			// Everything in a random block A before everything else.
			inA := make([]bool, n)
			for i := range inA {
				inA[i] = rng.Intn(2) == 0
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if inA[u] && !inA[v] {
						_ = d.AddEdge(u, v)
					}
				}
			}
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			_ = d.AddEdge(rng.Intn(n), rng.Intn(n)) // loops, duplicates and cycles are refused
		}
		p := d.Plan("random", 0)
		if err := p.Validate(in); err != nil {
			t.Fatal(err)
		}
		if assertStageIdeals(t, in, p) > 1 {
			cut++
		}

		// A random installed prefix: some steps of a random extension.
		installed := make([]bool, n)
		run := NewPlanRun(p)
		ready := run.Reset(nil)
		for steps := rng.Intn(n + 1); steps > 0; steps-- {
			k := rng.Intn(len(ready))
			i := ready[k]
			ready[k] = ready[len(ready)-1]
			ready = run.Complete(i, ready[:len(ready)-1])
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rev.Nodes) > 0 && assertStageIdeals(t, in, rev) > 1 {
			cutRev++
		}
	}
	if cut < 50 || cutRev < 50 {
		t.Fatalf("only %d plans and %d rollbacks with a series cut — the property was barely exercised", cut, cutRev)
	}
}

func stateKey(st State) string {
	b := make([]byte, 0, 8*len(st))
	for _, w := range st {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>(8*k)))
		}
	}
	return string(b)
}

// TestSparsePlanFig1 pins the sparse derivation on the Fig.1 update
// (no waypoint, so Peacock applies): the only edges are the new-only
// rule chains feeding each old-path switch — 7,8 → 1 and 9,10,11 → 3
// — and the derived plan is safe in every order ideal.
func TestSparsePlanFig1(t *testing.T) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := PlanByName(in, AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sparse {
		t.Fatalf("peacock Fig.1 plan not sparse: %s", p)
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if g, w := p.NumEdges(), 5; g != w {
		t.Fatalf("edges = %d, want %d (%s)", g, w, p)
	}
	deps := map[topo.NodeID][]topo.NodeID{}
	for _, nd := range p.Nodes {
		var ds []topo.NodeID
		for _, d := range nd.Deps {
			ds = append(ds, p.Nodes[d].Switch)
		}
		deps[nd.Switch] = ds
	}
	if !reflect.DeepEqual(deps[1], []topo.NodeID{7, 8}) {
		t.Fatalf("deps of 1 = %v, want [7 8]", deps[1])
	}
	if !reflect.DeepEqual(deps[3], []topo.NodeID{9, 10, 11}) {
		t.Fatalf("deps of 3 = %v, want [9 10 11]", deps[3])
	}
	// The sparse plan must still be provably safe: every ideal clean.
	w := in.NewWalker()
	idx := make([]int, len(p.Nodes))
	for i, nd := range p.Nodes {
		idx[i] = in.NodeIndex(nd.Switch)
	}
	complete := p.VisitIdeals(
		func(node int, _ bool) { w.Flip(idx[node]) },
		func() bool { return w.Check(p.Guarantees) == 0 })
	if !complete {
		t.Fatal("sparse plan has a violating order ideal")
	}
}

// TestSparsePlanNeverWeakensGuarantees property-tests the SparsePlan
// backstop: for random two-path instances, every sparse plan emitted
// by PlanByName keeps its guarantees in every order ideal.
func TestSparsePlanNeverWeakensGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(9), false)
		in := MustInstance(ti.Old, ti.New, 0)
		if in.NumPending() == 0 {
			continue
		}
		for _, name := range []string{AlgoPeacock, AlgoGreedySLF} {
			p, err := PlanByName(in, name, 0, true)
			if err != nil {
				continue // scheduler declined the instance
			}
			if err := p.Validate(in); err != nil {
				t.Fatalf("%s on %v: invalid plan: %v", name, in, err)
			}
			w := in.NewWalker()
			idx := make([]int, len(p.Nodes))
			for i, nd := range p.Nodes {
				idx[i] = in.NodeIndex(nd.Switch)
			}
			complete := p.VisitIdeals(
				func(node int, _ bool) { w.Flip(idx[node]) },
				func() bool { return w.Check(p.Guarantees) == 0 })
			if !complete {
				t.Fatalf("%s on %v: sparse=%t plan violates %s in some ideal",
					name, in, p.Sparse, p.Guarantees)
			}
		}
	}
}

// TestSparsePlanComb pins the branch-parallel family the dispatch
// benchmark runs on: GreedySLF needs chainLen+1 lock-step rounds on a
// comb, while its sparse plan has depth 2 — each detour chain feeds
// only its own spine switch. The small comb's ideal space fits the
// exhaustive proof; the benchmark-sized one exercises the
// walk-projection argument plus spot-check path. Both must come out
// sparse.
func TestSparsePlanComb(t *testing.T) {
	for _, tc := range []struct{ k, chainLen int }{{3, 4}, {12, 8}} {
		ti := topo.Comb(tc.k, tc.chainLen)
		in := MustInstance(ti.Old, ti.New, 0)
		s, err := GreedySLF(in)
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth() != tc.chainLen+1 {
			t.Fatalf("Comb(%d,%d): greedy rounds = %d, want %d",
				tc.k, tc.chainLen, s.Depth(), tc.chainLen+1)
		}
		p := SparsePlan(in, s)
		if !p.Sparse {
			t.Fatalf("Comb(%d,%d): plan fell back to layered", tc.k, tc.chainLen)
		}
		if p.Depth() != 2 || p.NumEdges() != tc.k*tc.chainLen {
			t.Fatalf("Comb(%d,%d): depth %d edges %d, want depth 2, %d edges",
				tc.k, tc.chainLen, p.Depth(), p.NumEdges(), tc.k*tc.chainLen)
		}
	}
}

// TestPlanRun drives the dispatch bookkeeping over the Fig.1 sparse
// plan: roots release immediately, each completion releases exactly
// the nodes whose dependencies are all confirmed, and the run drains.
func TestPlanRun(t *testing.T) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := PlanByName(in, AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	run := NewPlanRun(p)
	ready := run.Reset(nil)
	if len(ready) != 5 { // the five new-only switches
		t.Fatalf("initial ready = %v, want the 5 roots", ready)
	}
	completed := map[int]bool{}
	queue := append([]int(nil), ready...)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, d := range p.Nodes[i].Deps {
			if !completed[d] {
				t.Fatalf("node %d released before dep %d completed", i, d)
			}
		}
		completed[i] = true
		queue = append(queue, run.Complete(i, nil)...)
	}
	if len(completed) != p.NumNodes() {
		t.Fatalf("completed %d of %d", len(completed), p.NumNodes())
	}
}

// TestPlanCodecRoundTrip pins decode(encode(p)) == p for layered and
// sparse plans of every registered scheduler.
func TestPlanCodecRoundTrip(t *testing.T) {
	in := fig1Instance(t)
	var plans []*Plan
	for _, name := range Names() {
		s, err := MustScheduler(name).Plan(in, 0)
		if err != nil {
			continue
		}
		plans = append(plans, s)
		if p, err := PlanByName(in, name, 0, true); err == nil {
			plans = append(plans, p)
		}
	}
	plans = append(plans, &Plan{Algorithm: "empty"})
	for _, p := range plans {
		enc := EncodePlan(p)
		dec, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", p, err)
		}
		if !reflect.DeepEqual(normalizePlan(p), normalizePlan(dec)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, p)
		}
		reenc := EncodePlan(dec)
		if !reflect.DeepEqual(enc, reenc) {
			t.Fatalf("%s: re-encode differs", p)
		}
	}
}

// normalizePlan maps empty dep slices to nil so DeepEqual compares
// structure, not nil-vs-empty encoding artifacts.
func normalizePlan(p *Plan) *Plan {
	c := *p
	c.Nodes = make([]PlanNode, len(p.Nodes))
	for i, n := range p.Nodes {
		c.Nodes[i] = n
		if len(n.Deps) == 0 {
			c.Nodes[i].Deps = nil
		}
	}
	return &c
}

// TestPlanCodecRejects pins structured failures (never panics) on
// malformed wire bytes.
func TestPlanCodecRejects(t *testing.T) {
	in := fig1Instance(t)
	s, err := WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodePlan(s)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOPE"),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0),
		"bad version":  append([]byte("TSUP"), 99),
		"self dep":     {'T', 'S', 'U', 'P', 1, 0, 0, 0, 1, 1, 1, 0},
		"huge nodes":   {'T', 'S', 'U', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"nonminimal":   {'T', 'S', 'U', 'P', 1, 0x80, 0x00, 0, 0, 0},
		"unknown flag": {'T', 'S', 'U', 'P', 1, 0, 0, 8, 0},
		// Node 1 with one dep whose varint is 2^63: int() would wrap
		// negative and index-panic every consumer if accepted.
		"dep overflow": {'T', 'S', 'U', 'P', 1, 0, 0, 0, 2, 1, 0, 1, 1,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	for name, data := range cases {
		p, err := DecodePlan(data)
		if err == nil {
			t.Fatalf("%s: decode accepted %v as %+v", name, data, p)
		}
	}
}
