package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := Fixed(3 * time.Millisecond).Sample(rng); d != 3*time.Millisecond {
		t.Fatalf("fixed sample = %v", d)
	}
	if d := Fixed(-5).Sample(rng); d != 0 {
		t.Fatalf("negative fixed = %v", d)
	}
	if Fixed(time.Second).String() == "" {
		t.Fatal("empty string")
	}
}

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Sample(rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("uniform sample %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	// Swapped bounds are tolerated.
	sw := Uniform{Min: 4 * time.Millisecond, Max: time.Millisecond}
	for i := 0; i < 100; i++ {
		d := sw.Sample(rng)
		if d < time.Millisecond || d > 4*time.Millisecond {
			t.Fatalf("swapped-bounds sample %v", d)
		}
	}
	if d := (Uniform{Min: 5, Max: 5}).Sample(rng); d != 5 {
		t.Fatalf("degenerate uniform = %v", d)
	}
	if d := (Uniform{Min: -10, Max: -5}).Sample(rng); d < 0 {
		t.Fatalf("negative uniform = %v", d)
	}
}

func TestNormalNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := Normal{Mean: time.Millisecond, Stddev: 2 * time.Millisecond}
	for i := 0; i < 2000; i++ {
		if d := n.Sample(rng); d < 0 {
			t.Fatalf("normal sample negative: %v", d)
		}
	}
}

func TestNormalMeanRoughlyRight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := Normal{Mean: 10 * time.Millisecond, Stddev: time.Millisecond}
	var sum time.Duration
	const iters = 5000
	for i := 0; i < iters; i++ {
		sum += n.Sample(rng)
	}
	mean := sum / iters
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Fatalf("empirical mean %v, want ≈10ms", mean)
	}
}

func TestParetoBoundsAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Pareto{Scale: time.Millisecond, Alpha: 1.2}
	sawTail := false
	for i := 0; i < 5000; i++ {
		d := p.Sample(rng)
		if d < p.Scale {
			t.Fatalf("pareto sample %v below scale", d)
		}
		if d > 100*time.Millisecond {
			t.Fatalf("pareto sample %v above default cap", d)
		}
		if d > 10*time.Millisecond {
			sawTail = true
		}
	}
	if !sawTail {
		t.Fatal("heavy tail never materialized in 5000 samples")
	}
	if d := (Pareto{Scale: 0}).Sample(rng); d != 0 {
		t.Fatalf("zero-scale pareto = %v", d)
	}
	capd := Pareto{Scale: time.Millisecond, Alpha: 0.5, Cap: 2 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := capd.Sample(rng); d > 2*time.Millisecond {
			t.Fatalf("cap violated: %v", d)
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(99), NewSource(99)
	dist := Uniform{Min: 0, Max: time.Second}
	for i := 0; i < 100; i++ {
		if a.Sample(dist) != b.Sample(dist) {
			t.Fatal("same-seed sources disagree")
		}
	}
	if a.Int63n(1000) != b.Int63n(1000) {
		t.Fatal("Int63n disagrees")
	}
}

func TestSourceNilDist(t *testing.T) {
	s := NewSource(1)
	if d := s.Sample(nil); d != 0 {
		t.Fatalf("nil dist sample = %v", d)
	}
	if d := s.Sleep(nil); d != 0 {
		t.Fatalf("nil dist sleep = %v", d)
	}
}

func TestSourceConcurrentUse(t *testing.T) {
	s := NewSource(7)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				s.Sample(Uniform{Min: 0, Max: time.Microsecond})
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestSleepActuallySleeps(t *testing.T) {
	s := NewSource(8)
	start := time.Now()
	d := s.Sleep(Fixed(5 * time.Millisecond))
	if d != 5*time.Millisecond {
		t.Fatalf("sleep returned %v", d)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("slept only %v", elapsed)
	}
}

// TestQuickAllDistributionsNonNegative property-tests the invariant
// every Latency implementation promises.
func TestQuickAllDistributionsNonNegative(t *testing.T) {
	f := func(seed int64, a, b int32, alpha float64) bool {
		rng := rand.New(rand.NewSource(seed))
		dists := []Latency{
			Fixed(time.Duration(a)),
			Uniform{Min: time.Duration(a), Max: time.Duration(b)},
			Normal{Mean: time.Duration(a), Stddev: time.Duration(b)},
			Pareto{Scale: time.Duration(a), Alpha: alpha},
		}
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				if d.Sample(rng) < 0 {
					return false
				}
			}
			if d.String() == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	f := Faults{DropProb: 0.2, DupProb: 0.1, ReorderProb: 0.3, ReorderDelay: Fixed(2 * time.Millisecond)}
	draw := func(seed int64, n int) []FaultDecision {
		src := NewSource(seed)
		out := make([]FaultDecision, n)
		for i := range out {
			out[i] = src.Fault(f)
		}
		return out
	}
	a, b := draw(42, 500), draw(42, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across same-seed sources: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The model must actually inject: with these rates, 500 draws
	// without a single fault would be a broken generator.
	some := false
	for _, d := range a {
		if d.Drop || d.Dup || d.Reordered {
			some = true
		}
		if d.Drop && (d.Dup || d.Reordered || d.Delay != 0) {
			t.Fatalf("dropped message carries extra fates: %+v", d)
		}
		if (d.Dup || d.Reordered) && d.Delay <= 0 {
			t.Fatalf("dup/reordered decision without delay: %+v", d)
		}
	}
	if !some {
		t.Fatal("no fault injected in 500 draws")
	}
	if c := draw(43, 500); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestFaultZeroModelInjectsNothing(t *testing.T) {
	src := NewSource(7)
	for i := 0; i < 100; i++ {
		if d := src.Fault(Faults{}); d != (FaultDecision{}) {
			t.Fatalf("zero model injected %+v", d)
		}
	}
	if (Faults{}).Active() {
		t.Fatal("zero model reports active")
	}
}

// TestSourceStreamMatchesEagerSeed: a Source seeds its generator at the
// first draw, and every stream it yields — Int63n, each Latency kind,
// Fault with all three probabilities set — is the stream of a source
// seeded eagerly with rand.New(rand.NewSource(seed)), including when
// the first draw comes after many Fixed samples and inactive faults
// that draw nothing.
func TestSourceStreamMatchesEagerSeed(t *testing.T) {
	faults := Faults{DropProb: 0.2, DupProb: 0.3, ReorderProb: 0.4, ReorderDelay: Uniform{Min: time.Microsecond, Max: time.Millisecond}}
	dists := []Latency{
		Fixed(3 * time.Millisecond),
		Uniform{Min: time.Millisecond, Max: 9 * time.Millisecond},
		Normal{Mean: 5 * time.Millisecond, Stddev: 2 * time.Millisecond},
		Pareto{Scale: time.Millisecond, Alpha: 1.2},
	}
	for _, tc := range []struct {
		seed   int64
		idle   int // Fixed samples and inactive faults before the first draw
		rounds int
	}{{1, 0, 200}, {42, 1, 200}, {-7, 1000, 200}, {1 << 40, 37, 50}} {
		lazy := NewSource(tc.seed)
		eager := &Source{rng: rand.New(rand.NewSource(tc.seed)), clock: lazy.clock}
		for i := 0; i < tc.idle; i++ {
			for _, s := range []*Source{lazy, eager} {
				s.Sample(Fixed(time.Duration(i)))
				s.Fault(Faults{ReorderDelay: Uniform{Max: time.Second}})
			}
		}
		if lazy.lazy.src != nil {
			t.Fatalf("seed %d: generator built before the first draw", tc.seed)
		}
		for r := 0; r < tc.rounds; r++ {
			if a, b := lazy.Int63n(1000+int64(r)), eager.Int63n(1000+int64(r)); a != b {
				t.Fatalf("seed %d round %d: Int63n %d, eager %d", tc.seed, r, a, b)
			}
			for _, d := range dists {
				if a, b := lazy.Sample(d), eager.Sample(d); a != b {
					t.Fatalf("seed %d round %d: %v sampled %v, eager %v", tc.seed, r, d, a, b)
				}
			}
			if a, b := lazy.Fault(faults), eager.Fault(faults); a != b {
				t.Fatalf("seed %d round %d: fault %+v, eager %+v", tc.seed, r, a, b)
			}
		}
	}
}
