package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/topo"
)

// verifyScheduleBrute validates a schedule's structure and exhaustively
// checks props over every reachable transient state (all subsets of
// every round on top of the completed prefix). Rounds above 2^18
// subsets would be too slow; the instances used here keep rounds small.
func verifyScheduleBrute(t *testing.T, in *Instance, s *Plan, props Property) {
	t.Helper()
	if err := s.Validate(in); err != nil {
		t.Fatalf("%s: invalid schedule: %v", s.Algorithm, err)
	}
	done := in.NewState()
	for i, round := range s.Layers() {
		if len(round) > 18 {
			t.Fatalf("%s: round %d too large for brute force (%d)", s.Algorithm, i, len(round))
		}
		if violated := bruteForceRound(in, done, round, props); violated != 0 {
			t.Fatalf("%s: round %d (%v) violates %v on %v\nschedule: %v",
				s.Algorithm, i, round, violated, in, s)
		}
		in.Mark(done, round...)
	}
	// Final state must realize the new path.
	walk, outcome := in.Walk(done)
	if outcome != Reached || !walk.Equal(in.New) {
		t.Fatalf("%s: final walk %v (%v), want new path %v", s.Algorithm, walk, outcome, in.New)
	}
}

func randomInstance(rng *rand.Rand, n int, waypoint bool) *Instance {
	inst := topo.RandomTwoPath(rng, n, waypoint)
	return MustInstance(inst.Old, inst.New, inst.Waypoint)
}

func TestOneShotStructure(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	s := OneShot(in)
	if s.Depth() != 1 || s.NumNodes() != in.NumPending() {
		t.Fatalf("oneshot = %v", s)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if s.Guarantees != 0 {
		t.Fatal("oneshot must not claim guarantees")
	}
}

func TestOneShotNoPending(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 0)
	s := OneShot(in)
	if s.Depth() != 0 {
		t.Fatalf("no-op update got %d rounds", s.Depth())
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotViolatesOnAdversarialInstance(t *testing.T) {
	// The whole point of the paper: one-shot updates are transiently
	// inconsistent. On the reversal family a subset state loops.
	inst := topo.Reversal(8)
	in := MustInstance(inst.Old, inst.New, 0)
	s := OneShot(in)
	violated := bruteForceRound(in, nil, s.Layers()[0], RelaxedLoopFreedom|NoBlackhole)
	if violated == 0 {
		t.Fatal("one-shot on reversal(8) should violate transient consistency")
	}
}

func TestGreedySLFOnFamilies(t *testing.T) {
	cases := map[string]*Instance{
		"fig1":         MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		"reversal8":    func() *Instance { i := topo.Reversal(8); return MustInstance(i.Old, i.New, 0) }(),
		"staircase9":   func() *Instance { i := topo.Staircase(9); return MustInstance(i.Old, i.New, 0) }(),
		"disjoint":     MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 6, 4}, 0),
		"identical":    MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 0),
		"two-switch":   MustInstance(topo.Path{1, 2}, topo.Path{1, 2}, 0),
		"direct-hop":   MustInstance(topo.Path{1, 2, 3, 4, 5}, topo.Path{1, 5}, 0),
		"full-reorder": MustInstance(topo.Path{1, 2, 3, 4, 5, 6}, topo.Path{1, 4, 2, 5, 3, 6}, 0),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := GreedySLF(in)
			if err != nil {
				t.Fatal(err)
			}
			verifyScheduleBrute(t, in, s, NoBlackhole|StrongLoopFreedom|RelaxedLoopFreedom)
		})
	}
}

func TestGreedySLFRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 4+rng.Intn(10), false)
		s, err := GreedySLF(in)
		if err != nil {
			t.Fatalf("greedy-slf failed on %v: %v", in, err)
		}
		verifyScheduleBrute(t, in, s, NoBlackhole|StrongLoopFreedom|RelaxedLoopFreedom)
	}
}

func TestPeacockOnFamilies(t *testing.T) {
	cases := map[string]*Instance{
		"fig1":         MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		"reversal8":    func() *Instance { i := topo.Reversal(8); return MustInstance(i.Old, i.New, 0) }(),
		"reversal12":   func() *Instance { i := topo.Reversal(12); return MustInstance(i.Old, i.New, 0) }(),
		"staircase9":   func() *Instance { i := topo.Staircase(9); return MustInstance(i.Old, i.New, 0) }(),
		"staircase14":  func() *Instance { i := topo.Staircase(14); return MustInstance(i.Old, i.New, 0) }(),
		"disjoint":     MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 6, 4}, 0),
		"identical":    MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 0),
		"direct-hop":   MustInstance(topo.Path{1, 2, 3, 4, 5}, topo.Path{1, 5}, 0),
		"full-reorder": MustInstance(topo.Path{1, 2, 3, 4, 5, 6}, topo.Path{1, 4, 2, 5, 3, 6}, 0),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Peacock(in)
			if err != nil {
				t.Fatal(err)
			}
			verifyScheduleBrute(t, in, s, NoBlackhole|RelaxedLoopFreedom)
		})
	}
}

func TestPeacockRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 4+rng.Intn(10), false)
		s, err := Peacock(in)
		if err != nil {
			t.Fatalf("peacock failed on %v: %v", in, err)
		}
		verifyScheduleBrute(t, in, s, NoBlackhole|RelaxedLoopFreedom)
	}
}

func TestPeacockReversalRoundsConstant(t *testing.T) {
	// On the reversal family relaxed loop freedom needs a constant
	// number of rounds (flip the two forward switches, then everything
	// else off the new walk) — the PODC'15 shape.
	for _, n := range []int{8, 16, 32, 64} {
		inst := topo.Reversal(n)
		in := MustInstance(inst.Old, inst.New, 0)
		s, err := Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth() > 3 {
			t.Fatalf("peacock reversal(%d) used %d rounds, want <= 3", n, s.Depth())
		}
	}
}

func TestPeacockFewerOrEqualRoundsThanGreedySLF(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng, 6+rng.Intn(10), false)
		p, err := Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		g, err := GreedySLF(in)
		if err != nil {
			t.Fatal(err)
		}
		// Not a theorem per instance, but grossly inverted results
		// would indicate a regression; allow slack of one round.
		if p.Depth() > g.Depth()+1 {
			t.Fatalf("peacock %d rounds vs greedy-slf %d on %v", p.Depth(), g.Depth(), in)
		}
	}
}

func TestWayUpFig1(t *testing.T) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	s, err := WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	verifyScheduleBrute(t, in, s, NoBlackhole|WaypointEnforcement)
	if s.LoopFreedomCompromised {
		t.Fatal("fig1 should admit a loop-free waypoint schedule")
	}
	verifyScheduleBrute(t, in, s, NoBlackhole|WaypointEnforcement|RelaxedLoopFreedom)
}

func TestWayUpRequiresWaypoint(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 3}, 0)
	if _, err := WayUp(in); err == nil {
		t.Fatal("wayup without waypoint must fail")
	}
}

func TestWayUpRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 4+rng.Intn(10), true)
		s, err := WayUp(in)
		if err != nil {
			t.Fatalf("wayup failed on %v: %v", in, err)
		}
		verifyScheduleBrute(t, in, s, NoBlackhole|WaypointEnforcement)
		if !s.LoopFreedomCompromised {
			verifyScheduleBrute(t, in, s, NoBlackhole|WaypointEnforcement|RelaxedLoopFreedom)
		}
	}
}

func TestWayUpDangerousSwitchLast(t *testing.T) {
	// Old 1→2→3(w)→4→5, new 1→3(w)→2→4... no: build an instance with
	// a dangerous switch: pre-waypoint on old, post-waypoint on new.
	// Old ⟨1,2,3,4,5⟩ with w=3; new ⟨1,3,2,5⟩: switch 2 is pre-w on
	// old (index 1 < 2) and post-w on new (index 2 > 1) — dangerous.
	in := MustInstance(topo.Path{1, 2, 3, 4, 5}, topo.Path{1, 3, 2, 5}, 3)
	s, err := WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	verifyScheduleBrute(t, in, s, NoBlackhole|WaypointEnforcement)
	// Switch 2 must come strictly after switch 1's round (1 routes
	// through w first).
	roundOf := map[topo.NodeID]int{}
	for i, r := range s.Layers() {
		for _, v := range r {
			roundOf[v] = i
		}
	}
	if roundOf[2] <= roundOf[1] {
		t.Fatalf("dangerous switch 2 scheduled in round %d, not after source round %d\n%v",
			roundOf[2], roundOf[1], s)
	}
}

func TestOptimalMinimalAndSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	props := NoBlackhole | RelaxedLoopFreedom
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 4+rng.Intn(5), false)
		if in.NumPending() > 8 {
			continue
		}
		opt, err := Optimal(in, props)
		if err != nil {
			t.Fatalf("optimal failed on %v: %v", in, err)
		}
		verifyScheduleBrute(t, in, opt, props)
		// Optimality: no scheduler may beat it.
		p, err := Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		if p.Depth() < opt.Depth() {
			t.Fatalf("peacock (%d rounds) beat optimal (%d) on %v", p.Depth(), opt.Depth(), in)
		}
	}
}

func TestOptimalRejectsOversizedInstance(t *testing.T) {
	inst := topo.Reversal(MaxOptimalPending + 4)
	in := MustInstance(inst.Old, inst.New, 0)
	if _, err := Optimal(in, RelaxedLoopFreedom); err == nil {
		t.Fatal("optimal must reject oversized instances")
	}
}

func TestOptimalNoPending(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 0)
	s, err := Optimal(in, NoBlackhole|RelaxedLoopFreedom)
	if err != nil || s.Depth() != 0 {
		t.Fatalf("no-op optimal = %v, %v", s, err)
	}
}

func TestFeasibleAlwaysForRelaxedLF(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 4+rng.Intn(8), false)
		if in.NumPending() > MaxFeasiblePending {
			continue
		}
		ok, err := Feasible(in, NoBlackhole|RelaxedLoopFreedom)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("relaxed loop freedom must always be feasible, failed on %v", in)
		}
	}
}

func TestFeasibleMatchesOptimalExistence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	props := NoBlackhole | WaypointEnforcement | RelaxedLoopFreedom
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 4+rng.Intn(5), true)
		if in.NumPending() > 8 {
			continue
		}
		feasible, err := Feasible(in, props)
		if err != nil {
			t.Fatal(err)
		}
		_, optErr := Optimal(in, props)
		if feasible != (optErr == nil) {
			t.Fatalf("feasible=%v but optimal err=%v on %v", feasible, optErr, in)
		}
	}
}

func TestScheduleValidateCatchesBadSchedules(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	cases := map[string]*Plan{
		"dup-switch":    Layered("x", 0, [][]topo.NodeID{{1, 3}, {3, 2}}),
		"not-pending":   Layered("x", 0, [][]topo.NodeID{{1, 3}, {2, 4}}),
		"missing-nodes": Layered("x", 0, [][]topo.NodeID{{1}}),
		"not-topological": {Nodes: []PlanNode{
			{Switch: 1, Deps: []int{1}}, {Switch: 3}, {Switch: 2},
		}},
	}
	for name, s := range cases {
		if err := s.Validate(in); err == nil {
			t.Fatalf("%s: bad schedule validated", name)
		}
	}
}

// TestLayeredRoundsView pins rounds as a view of a layered plan: empty
// rounds are not rounds, OpensRound marks where each round starts, and
// LayeredView is the plan itself for a layered plan and the layered
// plan of the layers otherwise.
func TestLayeredRoundsView(t *testing.T) {
	// Old 1→2→3→4, new 1→3→2→4: pending = {1, 3, 2}.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}, 0)
	p := Layered("x", NoBlackhole, [][]topo.NodeID{{}, {1, 2}, {}, {3}})
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got := p.Layers(); !reflect.DeepEqual(got, [][]topo.NodeID{{1, 2}, {3}}) {
		t.Fatalf("layers = %v", got)
	}
	for i, want := range []bool{true, false, true} {
		if p.OpensRound(i) != want {
			t.Fatalf("OpensRound(%d) = %t", i, !want)
		}
	}
	if p.LayeredView() != p {
		t.Fatal("LayeredView of a layered plan is not the plan itself")
	}
	// The same order with a redundant edge 0→2: the view drops it.
	q := &Plan{Algorithm: "x", Guarantees: NoBlackhole, Sparse: true, Nodes: []PlanNode{
		{Switch: 1}, {Switch: 2}, {Switch: 3, Deps: []int{0, 1}}, {Switch: 4, Deps: []int{0, 2}},
	}}
	v := q.LayeredView()
	want := Layered("x", NoBlackhole, [][]topo.NodeID{{1, 2}, {3}, {4}})
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("LayeredView = %+v, want %+v", v, want)
	}
}

func TestJointUpdate(t *testing.T) {
	mk := func(old, new topo.Path) *Instance { return MustInstance(old, new, 0) }
	instances := []*Instance{
		mk(topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}),
		mk(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 6, 4}),
	}
	j, err := NewJointUpdate(instances, MustScheduler(AlgoPeacock), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRounds() < 1 || j.NumRounds() > j.SequentialRounds() {
		t.Fatalf("joint rounds %d vs sequential %d", j.NumRounds(), j.SequentialRounds())
	}
	total := 0
	for i := 0; i < j.NumRounds(); i++ {
		for _, ups := range j.Round(i) {
			total += len(ups)
		}
	}
	if total != j.TotalFlowMods() {
		t.Fatalf("rounds cover %d updates, want %d", total, j.TotalFlowMods())
	}
	touches := j.SwitchTouches()
	summary := j.TouchSummary()
	if len(summary) != len(touches) {
		t.Fatal("summary size mismatch")
	}
	for i := 1; i < len(summary); i++ {
		if summary[i-1].Touches < summary[i].Touches {
			t.Fatal("summary not sorted by touches")
		}
	}
}

func TestJointUpdateErrors(t *testing.T) {
	if _, err := NewJointUpdate(nil, MustScheduler(AlgoPeacock), 0); err == nil {
		t.Fatal("empty joint update accepted")
	}
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 3}, 0)
	if _, err := NewJointUpdate([]*Instance{in}, MustScheduler(AlgoWayUp), 0); err == nil {
		t.Fatal("scheduler error not propagated")
	}
}
