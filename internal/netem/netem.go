// Package netem models the asynchrony of the SDN control channel: the
// per-message latencies that make FlowMods "take effect out of order"
// across switches (the paper's core problem statement), and the
// rule-installation delays of real switches (Kuzniar, Peresini, Kostic,
// PAM'15 — cited by the paper — report variable, sometimes
// heavy-tailed flow-table update latencies).
//
// All randomness is drawn from explicitly seeded sources so that every
// experiment in this repository is reproducible run-to-run.
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"tsu/internal/simclock"
)

// Latency is a samplable delay distribution.
type Latency interface {
	// Sample draws one delay; implementations never return a negative
	// duration.
	Sample(rng *rand.Rand) time.Duration
	String() string
}

// Fixed is a constant delay (zero models an ideal channel).
type Fixed time.Duration

// Sample returns the constant delay.
func (f Fixed) Sample(*rand.Rand) time.Duration {
	if f < 0 {
		return 0
	}
	return time.Duration(f)
}

func (f Fixed) String() string { return fmt.Sprintf("fixed(%v)", time.Duration(f)) }

// Uniform draws uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample draws from the interval; a degenerate interval behaves like
// Fixed(Min).
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	lo, hi := u.Min, u.Max
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
}

func (u Uniform) String() string { return fmt.Sprintf("uniform(%v..%v)", u.Min, u.Max) }

// Normal draws from a truncated-at-zero normal distribution — the
// common-case model for control-channel RTT jitter.
type Normal struct {
	Mean, Stddev time.Duration
}

// Sample draws one delay, truncating negatives to zero.
func (n Normal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.NormFloat64()*float64(n.Stddev) + float64(n.Mean))
	if d < 0 {
		return 0
	}
	return d
}

func (n Normal) String() string { return fmt.Sprintf("normal(μ=%v,σ=%v)", n.Mean, n.Stddev) }

// Pareto draws from a bounded Pareto distribution — the heavy-tailed
// model for switch rule-installation latency (occasional multi-ms
// stalls, after the PAM'15 measurements).
type Pareto struct {
	Scale time.Duration // minimum delay (x_m)
	Alpha float64       // tail index; smaller = heavier tail
	Cap   time.Duration // upper bound; zero means 100× scale
}

// Sample draws one delay.
func (p Pareto) Sample(rng *rand.Rand) time.Duration {
	scale := p.Scale
	if scale <= 0 {
		return 0
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	d := time.Duration(float64(scale) / math.Pow(u, 1/alpha))
	capAt := p.Cap
	if capAt <= 0 {
		capAt = 100 * scale
	}
	if d > capAt {
		d = capAt
	}
	return d
}

func (p Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%v,α=%.2f)", p.Scale, p.Alpha)
}

// Source is a mutex-guarded seeded random source usable from many
// goroutines (switches sample concurrently). Delays elapse on the
// source's clock: the wall clock by default, or a simclock.Sim so that
// sampled latencies cost virtual instead of wall-clock time.
//
// The generator is seeded at the first draw, not at construction: a
// switch whose latencies are all Fixed and which injects no fault
// never draws, and never pays math/rand's 4.9 KB of state.
type Source struct {
	mu    sync.Mutex
	lazy  lazySource
	rng   *rand.Rand // draws from lazy
	clock simclock.Clock
}

// lazySource is a rand.Source64 that builds rand.NewSource(seed) at its
// first Int63 or Uint64 call. rand.Rand calls its source only to draw,
// and every draw runs under Source.mu, so the stream is the eagerly
// seeded one, value for value.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) gen() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.gen().Int63() }
func (l *lazySource) Uint64() uint64  { return l.gen().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// NewSource returns a deterministic source for the seed, sleeping on
// the wall clock.
func NewSource(seed int64) *Source {
	return NewSourceClock(seed, nil)
}

// NewSourceClock returns a deterministic source whose Sleep elapses on
// the given clock (nil selects the wall clock).
func NewSourceClock(seed int64, c simclock.Clock) *Source {
	s := &Source{lazy: lazySource{seed: seed}, clock: simclock.Or(c)}
	s.rng = rand.New(&s.lazy)
	return s
}

// Sample draws from dist using the guarded RNG.
func (s *Source) Sample(dist Latency) time.Duration {
	if dist == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return dist.Sample(s.rng)
}

// Int63n draws a uniform integer in [0, n) using the guarded RNG.
func (s *Source) Int63n(n int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Int63n(n)
}

// Sleep samples dist and sleeps that long on the source's clock (no-op
// for zero delays).
func (s *Source) Sleep(dist Latency) time.Duration {
	d := s.Sample(dist)
	if d > 0 {
		s.clock.Sleep(d)
	}
	return d
}

// Faults is a seeded probabilistic fault model for one message class
// of the control channel (FlowMods toward switches, acks back, peer
// releases between switches). Each message independently draws its
// fate from the owning Source, so a fixed seed pins the exact fault
// sequence — fault experiments are reproducible like latency ones.
//
// The zero value injects nothing.
type Faults struct {
	// DropProb is the probability a message is silently lost.
	DropProb float64

	// DupProb is the probability a message is delivered twice (the
	// duplicate follows after ReorderDelay). Idempotent receivers —
	// OpenFlow MODIFY, the plan agents' seen-set — must absorb it.
	DupProb float64

	// ReorderProb is the probability a message is held back by an
	// extra ReorderDelay, letting later messages overtake it.
	ReorderProb float64

	// ReorderDelay is the extra delay of reordered (and duplicated)
	// deliveries; nil means 1ms fixed.
	ReorderDelay Latency
}

// Active reports whether the model can inject any fault.
func (f Faults) Active() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.ReorderProb > 0
}

func (f Faults) String() string {
	return fmt.Sprintf("faults(drop=%.3f dup=%.3f reorder=%.3f)", f.DropProb, f.DupProb, f.ReorderProb)
}

// FaultDecision is one message's drawn fate.
type FaultDecision struct {
	// Drop: the message never arrives.
	Drop bool
	// Dup: deliver the message a second time, Delay after the first.
	Dup bool
	// Reordered: hold the first delivery back by Delay, letting later
	// messages overtake it.
	Reordered bool
	// Delay: the extra latency — before first delivery when Reordered,
	// before the duplicate when Dup. Zero when neither fired.
	Delay time.Duration
}

// Fault draws one message's fate from the model. All draws come from
// the guarded RNG in a fixed order (drop, dup, reorder, delay), so a
// single-goroutine caller gets a bit-reproducible fault sequence per
// seed.
func (s *Source) Fault(f Faults) FaultDecision {
	if !f.Active() {
		return FaultDecision{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var d FaultDecision
	if f.DropProb > 0 && s.rng.Float64() < f.DropProb {
		d.Drop = true
		return d
	}
	if f.DupProb > 0 && s.rng.Float64() < f.DupProb {
		d.Dup = true
	}
	if f.ReorderProb > 0 && s.rng.Float64() < f.ReorderProb {
		d.Reordered = true
	}
	if d.Reordered || d.Dup {
		dist := f.ReorderDelay
		if dist == nil {
			dist = Fixed(time.Millisecond)
		}
		d.Delay = dist.Sample(s.rng)
	}
	return d
}
