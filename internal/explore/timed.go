package explore

import (
	"fmt"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/verify"
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
	// Rounds is the plan's stage count (a layered plan's rounds).
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

// Timed replays the plan on a virtual clock, stage by stage (see
// core.Plan.Stages; a layered plan's stages are its rounds): every
// switch's FlowMod takes effect at its issue time + ctrl + install
// (sampled per switch, in node order, from the seeded source), where a
// stage's roots issue at the stage start and any other node once its
// dependencies inside the stage have taken effect. The stage's barrier
// closes at the slowest delivery plus the barrier latency, and the next
// stage starts there — the controller loop of §2 of the paper, in
// virtual time. Transient security is checked after every single
// delivery event. The whole run costs no wall-clock waiting: a
// 10k-switch scenario is bounded by event processing, not by its
// modelled latencies.
func Timed(in *core.Instance, p *core.Plan, opts TimedOptions) (*TimedReport, error) {
	if err := p.Validate(in); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	props := resolveProps(in, p.Guarantees, opts.Props)
	sim := simclock.NewSim(time.Time{})
	src := netem.NewSourceClock(opts.Seed, sim)
	stages, _ := verify.Stages(in, p)
	layers := p.NodeLayers()
	rep := &TimedReport{Algorithm: p.Algorithm, Properties: props, Rounds: len(stages)}

	var st core.State // the live state: every delivery so far
	if len(stages) > 0 {
		st = in.CloneState(stages[0].Pre)
	}
	start := sim.Now()
	base := time.Duration(0)
	for r, stg := range stages {
		at := make([]time.Duration, len(stg.Plan.Nodes))
		stageEnd := base
		for i, nd := range stg.Plan.Nodes {
			issue := base
			for _, d := range nd.Deps {
				issue = max(issue, at[d])
			}
			at[i] = issue + src.Sample(opts.Ctrl) + src.Sample(opts.Install)
			stageEnd = max(stageEnd, at[i])
			v := nd.Switch
			sim.Schedule(at[i], func() {
				st.Toggle(in.NodeIndex(v))
				rep.Events++
				violated := in.CheckState(st, props)
				if violated != 0 {
					rep.Violations++
					if rep.First == nil {
						// The in-flight set at this instant is the
						// violating delivery order; minimize it for the
						// report, as a sampled order of stage r is.
						var order []int
						for k, nd := range stg.Plan.Nodes {
							if in.Updated(st, nd.Switch) != in.Updated(stg.Pre, nd.Switch) {
								order = append(order, k)
							}
						}
						min, cex := in.Minimize(stg.Pre, stg.Plan, order, props)
						rep.First = violation(in, p, layers, r, stg.First, min, cex)
					}
				}
				if opts.RecordLog {
					rep.Log = append(rep.Log, fmt.Sprintf("t=%v round=%d sw=%d violated=%s",
						sim.Now().Sub(simclock.Epoch), r, v, violated))
				}
			})
		}
		base = stageEnd + src.Sample(opts.Barrier)
	}
	sim.Run()
	rep.Makespan = sim.Now().Sub(start)
	if rep.Makespan < base {
		rep.Makespan = base // barrier tail after the last delivery
	}
	return rep, nil
}
