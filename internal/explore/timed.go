package explore

import (
	"fmt"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// TimedOptions configures a timed virtual-time replay.
type TimedOptions struct {
	// Ctrl models the control-channel latency per FlowMod; nil means
	// instantaneous.
	Ctrl netem.Latency
	// Install models the rule-installation latency per FlowMod; nil
	// means instantaneous.
	Install netem.Latency
	// Barrier models the round-closing barrier exchange; nil means
	// instantaneous.
	Barrier netem.Latency
	// Props is the property set checked after every delivery (zero:
	// same resolution as Options.Props).
	Props core.Property
	// Seed pins the latency samples; the run is deterministic in
	// (Seed, TimedOptions).
	Seed int64
	// RecordLog captures one line per delivery event into
	// TimedReport.Log (costs memory on large runs; off by default).
	RecordLog bool
}

// TimedReport is the outcome of one timed replay.
type TimedReport struct {
	Algorithm  string
	Properties core.Property
	// Events counts delivery events executed (= property checks).
	Events int
	// Rounds is the schedule's round count.
	Rounds int
	// Makespan is the virtual time from first FlowMod to last barrier.
	Makespan time.Duration
	// Violations counts events whose post-state violated Properties.
	Violations int
	// First is the first violating event's minimized trace, nil when
	// the run was clean.
	First *Violation
	// Log holds one line per event when TimedOptions.RecordLog is set.
	Log []string
}

// Timed replays the schedule on a virtual clock: per round, every
// switch's FlowMod takes effect at now + ctrl + install (sampled per
// switch from the seeded source); the round's barrier closes at the
// slowest delivery plus the barrier latency, and the next round starts
// there — the controller loop of §2 of the paper, in virtual time.
// Transient security is checked after every single delivery event.
// The whole run costs no wall-clock waiting: a 10k-switch scenario is
// bounded by event processing, not by its modelled latencies.
func Timed(in *core.Instance, s *core.Schedule, opts TimedOptions) (*TimedReport, error) {
	if err := s.Validate(in); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	props := resolveProps(in, s.Guarantees, opts.Props)
	sim := simclock.NewSim(time.Time{})
	src := netem.NewSourceClock(opts.Seed, sim)
	rep := &TimedReport{Algorithm: s.Algorithm, Properties: props, Rounds: s.NumRounds()}

	st := in.NewState()
	start := sim.Now()
	base := time.Duration(0)
	for r, round := range s.Rounds {
		roundEnd := base
		for _, v := range round {
			v := v
			at := base + src.Sample(opts.Ctrl) + src.Sample(opts.Install)
			if at > roundEnd {
				roundEnd = at
			}
			r := r
			sim.Schedule(at, func() {
				in.Mark(st, v)
				rep.Events++
				violated := in.CheckState(st, props)
				if violated != 0 {
					rep.Violations++
					if rep.First == nil {
						// The in-flight set at this instant is the
						// violating trace; minimize it for the report,
						// as a delivery order of the stage round r is.
						stg := stage{idx: r, pre: s.StateAfter(in, r)}
						var trace Trace
						for _, w := range round {
							if in.Updated(st, w) && !in.Updated(stg.pre, w) {
								trace = append(trace, Event{Round: r, Switch: w})
							}
						}
						antichain := core.PlanFromSchedule(&core.Schedule{Rounds: [][]topo.NodeID{round}})
						min, minViolated := Minimize(in, stg.pre, antichain, trace, props)
						rep.First = stg.violation(in, min, minViolated)
					}
				}
				if opts.RecordLog {
					rep.Log = append(rep.Log, fmt.Sprintf("t=%v round=%d sw=%d violated=%s",
						sim.Now().Sub(simclock.Epoch), r, v, violated))
				}
			})
		}
		base = roundEnd + src.Sample(opts.Barrier)
	}
	sim.Run()
	rep.Makespan = sim.Now().Sub(start)
	if rep.Makespan < base {
		rep.Makespan = base // barrier tail after the last delivery
	}
	return rep, nil
}
