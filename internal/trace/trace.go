// Package trace measures transient data-plane behaviour during live
// updates: it continuously injects probe packets into the simulated
// fabric while the controller's rounds are in flight and classifies
// every probe — delivered via the waypoint, delivered around it
// (security violation), dropped (blackhole), or stuck in a forwarding
// loop. This is the measurement harness behind the violation
// experiments (E1, E3, E7 in internal/experiments): one-shot updates produce
// violations under channel asynchrony, scheduled updates do not.
package trace

import (
	"context"
	"runtime"
	"sync"
	"time"

	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// Config parameterizes a prober.
type Config struct {
	// Ingress is the switch probes enter at (the source's edge switch).
	Ingress topo.NodeID
	// NWDst is the probed flow's destination address.
	NWDst uint32
	// Waypoint, when non-zero, marks deliveries that bypassed it as
	// violations.
	Waypoint topo.NodeID
	// Interval is the gap between probes (default 100µs).
	Interval time.Duration
	// TTL is the hop budget per probe (default 4× topology size).
	TTL int
	// Clock paces the probes. Nil selects the wall clock; a
	// simclock.Sim makes probing elapse in virtual time (pair Run with
	// another goroutine advancing the clock, or schedule Probe calls as sim
	// events for the fully deterministic event-driven form).
	Clock simclock.Clock
}

// Stats aggregates probe outcomes. Bypasses counts probes that reached
// the destination without crossing the waypoint; Loops counts probes
// that exhausted their TTL; Drops counts blackholed probes.
type Stats struct {
	Sent      int
	Delivered int
	Bypasses  int
	Loops     int
	Drops     int

	// FirstViolation records the earliest violating probe's path (for
	// diagnosis); nil when clean.
	FirstViolation *switchsim.ProbeResult
}

// Violations returns the total count of consistency violations
// observed (bypasses + loops + drops).
func (s Stats) Violations() int { return s.Bypasses + s.Loops + s.Drops }

// Prober injects probes into a fabric until stopped.
type Prober struct {
	fabric *switchsim.Fabric
	cfg    Config

	mu    sync.Mutex
	stats Stats
}

// NewProber builds a prober over the fabric.
func NewProber(f *switchsim.Fabric, cfg Config) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Microsecond
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 4 * f.Graph().NumNodes()
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	return &Prober{fabric: f, cfg: cfg}
}

// Probe sends a single probe and accounts its outcome.
func (p *Prober) Probe() switchsim.ProbeResult {
	res := p.fabric.Inject(p.cfg.Ingress, p.cfg.NWDst, p.cfg.TTL)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Sent++
	violation := false
	switch res.Outcome {
	case switchsim.ProbeDelivered:
		p.stats.Delivered++
		if p.cfg.Waypoint != 0 && !res.VisitedBefore(p.cfg.Waypoint) {
			p.stats.Bypasses++
			violation = true
		}
	case switchsim.ProbeTTLExceeded:
		p.stats.Loops++
		violation = true
	case switchsim.ProbeDropped:
		p.stats.Drops++
		violation = true
	}
	if violation && p.stats.FirstViolation == nil {
		r := res
		p.stats.FirstViolation = &r
	}
	return res
}

// Run injects probes every Interval until ctx is done and returns the
// accumulated stats, pacing itself on the prober's clock. On a virtual
// clock every interval is slept exactly (the simulation advances it).
// On the wall clock, tickers and time.Sleep both coalesce to the
// runtime/kernel timer resolution (about a millisecond), which would
// starve sub-millisecond probe rates of samples; short real intervals
// are therefore paced by yielding the processor between probes while
// watching the wall clock.
func (p *Prober) Run(ctx context.Context) Stats {
	const sleepFloor = 200 * time.Microsecond
	clock := p.cfg.Clock
	_, virtual := clock.(*simclock.Sim)
	next := clock.Now()
	for {
		select {
		case <-ctx.Done():
			return p.Stats()
		default:
		}
		p.Probe()
		next = next.Add(p.cfg.Interval)
		if virtual || p.cfg.Interval >= sleepFloor {
			// Wait through the clock but stay cancellable: on a
			// virtual clock a bare Sleep would park until somebody
			// advances the sim, which may never happen once the
			// driver shuts down.
			if d := next.Sub(clock.Now()); d > 0 {
				select {
				case <-ctx.Done():
					return p.Stats()
				case <-clock.After(d):
				}
			}
			continue
		}
		for clock.Now().Before(next) {
			runtime.Gosched()
		}
	}
}

// Start launches Run in a goroutine; the returned stop function halts
// probing and returns the stats.
func (p *Prober) Start(ctx context.Context) (stop func() Stats) {
	probeCtx, cancel := context.WithCancel(ctx)
	done := make(chan Stats, 1)
	go func() { done <- p.Run(probeCtx) }()
	return func() Stats {
		cancel()
		return <-done
	}
}

// Stats snapshots the current counters.
func (p *Prober) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
