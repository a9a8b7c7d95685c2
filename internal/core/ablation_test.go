package core

import (
	"math/rand"
	"testing"

	"tsu/internal/topo"
)

func TestSequentialCorrectOnFamilies(t *testing.T) {
	props := NoBlackhole | RelaxedLoopFreedom
	for name, in := range map[string]*Instance{
		"reversal10": func() *Instance { i := topo.Reversal(10); return MustInstance(i.Old, i.New, 0) }(),
		"nested10":   func() *Instance { i := topo.Nested(10); return MustInstance(i.Old, i.New, 0) }(),
		"fig1":       MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0),
	} {
		s, err := Sequential(in, props)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verifyScheduleBrute(t, in, s, props)
		if s.Depth() != in.NumPending() {
			t.Fatalf("%s: sequential rounds %d != pending %d", name, s.Depth(), in.NumPending())
		}
	}
}

func TestSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	props := NoBlackhole | RelaxedLoopFreedom
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng, 4+rng.Intn(8), false)
		s, err := Sequential(in, props)
		if err != nil {
			t.Fatalf("sequential failed on %v: %v", in, err)
		}
		verifyScheduleBrute(t, in, s, props)
	}
}

func TestSequentialStallsOnJointlyInfeasible(t *testing.T) {
	// Waypoint enforcement plus loop freedom can be jointly infeasible
	// even one switch at a time; find such an instance and pin the
	// stall behaviour.
	rng := rand.New(rand.NewSource(62))
	props := NoBlackhole | WaypointEnforcement | RelaxedLoopFreedom
	for trial := 0; trial < 500; trial++ {
		in := randomInstance(rng, 5+rng.Intn(6), true)
		if in.NumPending() == 0 || in.NumPending() > MaxFeasiblePending {
			continue
		}
		feasible, err := Feasible(in, props)
		if err != nil {
			t.Fatal(err)
		}
		if feasible {
			continue
		}
		if _, err := Sequential(in, props); err == nil {
			t.Fatalf("sequential succeeded on a jointly infeasible instance %v", in)
		}
		return // found and verified one
	}
	t.Skip("no jointly infeasible instance in 500 draws (rare but possible)")
}

// TestBatchingGain pins the ablation headline: Peacock's batching
// collapses the sequential baseline's Θ(n) rounds to a constant.
func TestBatchingGain(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		ti := topo.Reversal(n)
		in := MustInstance(ti.Old, ti.New, 0)
		p, err := Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Sequential(in, NoBlackhole|RelaxedLoopFreedom)
		if err != nil {
			t.Fatal(err)
		}
		if p.Depth() > 3 {
			t.Fatalf("n=%d: peacock %d rounds", n, p.Depth())
		}
		if s.Depth() != n-1 { // reversal(n) has n-1 pending switches
			t.Fatalf("n=%d: sequential %d rounds, want %d", n, s.Depth(), n-1)
		}
	}
}

// TestGreedySLFOptimalOnReversal cross-checks greedy's round count
// against the exact minimal-round solver on small reversal instances —
// on this family consecutive backward rules can never share a round
// (each pairs into a 2-cycle with its target's old rule), so n-2
// rounds (the two forward switches batch, the backward chain is
// sequential) is optimal and greedy must match it.
func TestGreedySLFOptimalOnReversal(t *testing.T) {
	props := NoBlackhole | StrongLoopFreedom
	for _, n := range []int{6, 8, 10} {
		ti := topo.Reversal(n)
		in := MustInstance(ti.Old, ti.New, 0)
		g, err := GreedySLF(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimal(in, props)
		if err != nil {
			t.Fatal(err)
		}
		if g.Depth() != opt.Depth() {
			t.Fatalf("n=%d: greedy %d rounds vs optimal %d", n, g.Depth(), opt.Depth())
		}
		if opt.Depth() != n-2 {
			t.Fatalf("n=%d: optimal %d rounds, want %d", n, opt.Depth(), n-2)
		}
	}
}

// TestPeacockOptimalityGap measures Peacock against the exact solver
// on random instances: it may use more rounds (it is a constructive
// heuristic) but never catastrophically more, and never fewer than
// optimal (which would indicate a verifier bug).
func TestPeacockOptimalityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	props := NoBlackhole | RelaxedLoopFreedom
	checked := 0
	for trial := 0; trial < 200 && checked < 40; trial++ {
		in := randomInstance(rng, 4+rng.Intn(5), false)
		if in.NumPending() == 0 || in.NumPending() > 8 {
			continue
		}
		checked++
		p, err := Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimal(in, props)
		if err != nil {
			t.Fatal(err)
		}
		if p.Depth() < opt.Depth() {
			t.Fatalf("peacock %d < optimal %d on %v — optimal solver unsound", p.Depth(), opt.Depth(), in)
		}
		if p.Depth() > opt.Depth()+2 {
			t.Fatalf("peacock %d rounds vs optimal %d on %v — gap too large", p.Depth(), opt.Depth(), in)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// BenchmarkAblationBatching regenerates the batching ablation:
// rounds for Peacock (full batching) vs Sequential (no batching) vs
// GreedySLF (strong-LF batching) on the reversal family.
func BenchmarkAblationBatching(b *testing.B) {
	ti := topo.Reversal(64)
	in := MustInstance(ti.Old, ti.New, 0)
	b.Run("peacock", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			s, err := Peacock(in)
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Depth()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("sequential", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			s, err := Sequential(in, NoBlackhole|RelaxedLoopFreedom)
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Depth()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("greedy-slf", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			s, err := GreedySLF(in)
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Depth()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkAblationCheckerBudget measures the exact checker's cost
// growth with round size (the budget knob's rationale).
func BenchmarkAblationCheckerBudget(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		ti := topo.Reversal(n)
		in := MustInstance(ti.Old, ti.New, 0)
		round := in.Pending()
		b.Run("pending="+itoaCore(len(round)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.CheckRound(nil, round, NoBlackhole|RelaxedLoopFreedom, 1<<22)
			}
		})
	}
}

func itoaCore(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
