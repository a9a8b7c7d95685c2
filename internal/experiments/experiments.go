// Package experiments regenerates every experiment of the reproduction
// (see README.md for the experiment index). Each experiment builds a
// metrics.Table; the cmd/experiments binary prints them and the root
// bench harness invokes them under testing.B.
//
// E1 and E2 reproduce the paper's own artifacts (the Figure 1 demo
// scenario and the stated "update time of flow tables" evaluation);
// E3–E9 regenerate the shape results the demo claims through its cited
// algorithms (waypoint enforcement always preserved; relaxed loop
// freedom needs far fewer rounds than strong; violations of the
// one-shot baseline grow with channel asynchrony).
//
// E1, E2, E6 and E7 drive a live Bed — controller, switch fleet over
// loopback TCP — through the API client; E3–E5, E9 and E12 call the
// schedulers, verifier and synthesizer directly. E10 and E13–E15 are
// analytic models on virtual time: no Engine, journal or switch is
// constructed. E10 replays plans on explore.Timed's event clock;
// E13–E15 replay one peacock plan per reroute arithmetically from
// seeded per-node draws (replay.go). The timing arithmetic is the
// model's own, every fault decision is the engine's: the rollback plan
// is core.Plan.Reverse checked by verify.Plan, and adopt-or-rollback
// after a crash is controller.Adoptable.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/controller"
	"tsu/internal/core"
	"tsu/internal/explore"
	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/trace"
	"tsu/internal/verify"
)

// FlowIP is the destination identifying the demo flow (host h2).
const FlowIP = "10.0.0.2"

// FlowNWDst is FlowIP as a wire-order integer.
const FlowNWDst uint32 = 0x0a000002

// Bed is a live deployment: controller (OpenFlow listener plus the
// /v1 REST API over loopback TCP), a full fleet of simulated switches,
// and a typed API client. All update traffic runs through Client, the
// same way external operators drive the system.
type Bed struct {
	Ctrl   *controller.Controller
	Fabric *switchsim.Fabric
	Client *client.Client
	rest   *http.Server
	cancel context.CancelFunc
	graph  *topo.Graph
}

// BedConfig parameterizes a live deployment.
type BedConfig struct {
	// Jitter delays each control message per switch (asynchrony).
	Jitter netem.Latency
	// Install delays each FlowMod's effect (rule-install cost).
	Install netem.Latency
	// Seed makes the run reproducible (per-switch sources derive from
	// it).
	Seed int64
}

// NewBed starts a controller and connects one switch per topology node.
func NewBed(g *topo.Graph, cfg BedConfig) (*Bed, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ctrl, err := controller.New(controller.Config{Topology: g})
	if err != nil {
		cancel()
		return nil, err
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	fabric := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			CtrlLatency:    cfg.Jitter,
			InstallLatency: cfg.Install,
			Source:         netem.NewSource(cfg.Seed*1000003 + int64(n)),
		})
		if err != nil {
			cancel()
			return nil, err
		}
		if err := sw.Connect(ctx, addr); err != nil {
			cancel()
			return nil, err
		}
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		cancel()
		return nil, err
	}
	ln, err := new(net.ListenConfig).Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	rest := &http.Server{Handler: ctrl.RESTHandler()}
	go rest.Serve(ln) //nolint:errcheck // closed by Bed.Close
	return &Bed{
		Ctrl:   ctrl,
		Fabric: fabric,
		Client: client.New("http://" + ln.Addr().String()),
		rest:   rest,
		cancel: cancel,
		graph:  g,
	}, nil
}

// Close tears the deployment down.
func (b *Bed) Close() {
	b.rest.Close() //nolint:errcheck // shutdown path
	b.cancel()
	for _, n := range b.graph.Nodes() {
		if sw := b.Fabric.Switch(n); sw != nil {
			sw.Stop()
		}
	}
}

// InstallOldPolicy programs the old path through the REST API
// (delivering to host when the destination switch has one attached).
func (b *Bed) InstallOldPolicy(path topo.Path) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	host := ""
	for _, h := range b.graph.Hosts() {
		if h.Attach == path.Dst() {
			host = h.Name
			break
		}
	}
	return b.Client.InstallPolicy(ctx, api.PolicyRequest{Path: api.FromPath(path), NWDst: FlowIP, Host: host})
}

// RunUpdateAlgorithm submits the update through the API client by
// algorithm name (any registry name or "two-phase", the way an
// external client names it — the server computes the schedule) and
// waits for completion. The returned status carries the
// server-measured per-round and total barrier timings.
func (b *Bed) RunUpdateAlgorithm(in *core.Instance, algorithm string, interval time.Duration) (*api.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	resp, err := b.Client.SubmitBatch(ctx, api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{{
			OldPath:   api.FromPath(in.Old),
			NewPath:   api.FromPath(in.New),
			Waypoint:  uint64(in.Waypoint),
			Algorithm: algorithm,
			NWDst:     FlowIP,
		}},
		Interval: int(interval.Milliseconds()),
	})
	if err != nil {
		return nil, err
	}
	st, err := b.Client.Wait(ctx, resp.Updates[0].ID)
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("experiments: job %d failed: %s", st.ID, st.Error)
	}
	return st, nil
}

// fig1Bed builds a bed on the Figure 1 topology with the old policy
// installed.
func fig1Bed(cfg BedConfig) (*Bed, error) {
	bed, err := NewBed(topo.Fig1(), cfg)
	if err != nil {
		return nil, err
	}
	if err := bed.InstallOldPolicy(topo.Fig1OldPath); err != nil {
		bed.Close()
		return nil, err
	}
	return bed, nil
}

// E1Fig1 reproduces the paper's demo scenario (Figure 1): the WayUp
// update on the 12-switch topology under an asynchronous control
// channel, with continuous probes, against the one-shot baseline.
// Columns: algorithm, rounds, total update time, probes sent,
// waypoint bypasses, loops, drops.
func E1Fig1(seed int64) (*metrics.Table, error) {
	tbl := metrics.NewTable("algorithm", "rounds", "update_time", "probes", "bypasses", "loops", "drops")
	for _, algo := range []string{core.AlgoWayUp, core.AlgoOneShot} {
		bed, err := fig1Bed(BedConfig{
			Jitter:  netem.Uniform{Min: 0, Max: 3 * time.Millisecond},
			Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
			Seed:    seed,
		})
		if err != nil {
			return nil, err
		}
		in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
		plan, err := core.PlanByName(in, algo, 0, false)
		if err != nil {
			bed.Close()
			return nil, err
		}
		prober := trace.NewProber(bed.Fabric, trace.Config{
			Ingress:  1,
			NWDst:    FlowNWDst,
			Waypoint: topo.Fig1Waypoint,
			Interval: 50 * time.Microsecond,
		})
		stop := prober.Start(context.Background())
		job, err := bed.RunUpdateAlgorithm(in, plan.Algorithm, 0)
		if err != nil {
			stop()
			bed.Close()
			return nil, err
		}
		st := stop()
		tbl.AddRow(algo, plan.Depth(), job.TotalDuration(), st.Sent, st.Bypasses, st.Loops, st.Drops)
		bed.Close()
	}
	return tbl, nil
}

// E2UpdateTime reproduces the paper's stated evaluation: "the update
// time of flow tables in OpenFlow switches" — total barrier-confirmed
// update time per algorithm across rule-install latency regimes, on the
// Figure 1 scenario, averaged over reps runs.
func E2UpdateTime(reps int, seed int64) (*metrics.Table, error) {
	reps = orDefault(reps, 3)
	regimes := []struct {
		name    string
		install netem.Latency
	}{
		{"fast(0.5ms)", netem.Fixed(500 * time.Microsecond)},
		{"typical(2ms)", netem.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}},
		{"pam15-tail", netem.Pareto{Scale: time.Millisecond, Alpha: 1.5, Cap: 8 * time.Millisecond}},
	}
	tbl := metrics.NewTable("install_latency", "algorithm", "rounds", "mean_total", "mean_per_round")
	for _, reg := range regimes {
		for _, algo := range []string{core.AlgoOneShot, core.AlgoPeacock, core.AlgoWayUp, core.AlgoGreedySLF} {
			var total metrics.Histogram
			var perRound metrics.Histogram
			rounds := 0
			for r := 0; r < reps; r++ {
				bed, err := fig1Bed(BedConfig{
					Jitter:  netem.Uniform{Min: 0, Max: time.Millisecond},
					Install: reg.install,
					Seed:    seed + int64(r),
				})
				if err != nil {
					return nil, err
				}
				in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
				plan, err := core.PlanByName(in, algo, 0, false)
				if err != nil {
					bed.Close()
					return nil, err
				}
				rounds = plan.Depth()
				job, err := bed.RunUpdateAlgorithm(in, plan.Algorithm, 0)
				if err != nil {
					bed.Close()
					return nil, err
				}
				total.Record(job.TotalDuration())
				for _, rt := range job.Rounds {
					perRound.Record(rt.Duration())
				}
				bed.Close()
			}
			tbl.AddRow(reg.name, algo, rounds, total.Mean(), perRound.Mean())
		}
	}
	return tbl, nil
}

// E3Violations measures how often the one-shot baseline admits a
// reachable transiently insecure state on random waypoint instances —
// versus the scheduled algorithms, which are verified safe on every
// instance. All instances of a size verify as one parallel batch.
// Columns: n, instances, one-shot unsafe fraction, wayup unsafe
// fraction (always 0).
func E3Violations(instances int, seed int64) (*metrics.Table, error) {
	instances = orDefault(instances, 50)
	tbl := metrics.NewTable("n", "instances", "oneshot_unsafe", "wayup_unsafe")
	props := core.NoBlackhole | core.WaypointEnforcement
	for _, n := range []int{8, 16, 24, 32} {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		var tasks []verify.Task
		for i := 0; i < instances; i++ {
			ti := topo.RandomTwoPath(rng, n, true)
			in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
			if in.NumPending() == 0 {
				continue
			}
			for _, algo := range []string{core.AlgoOneShot, core.AlgoWayUp} {
				s, err := core.PlanByName(in, algo, 0, false)
				if err != nil {
					return nil, err
				}
				tasks = append(tasks, verify.Task{Instance: in, Plan: s, Props: props})
			}
		}
		reports := verify.Batch(tasks, verify.Options{Budget: 1 << 18})
		unsafe := map[string]int{} // keyed by the schedule's own algorithm
		for _, r := range reports {
			if !r.OK() {
				unsafe[r.Algorithm]++
			}
		}
		oneshotUnsafe, wayupUnsafe := unsafe[core.AlgoOneShot], unsafe[core.AlgoWayUp]
		tbl.AddRow(n, instances,
			float64(oneshotUnsafe)/float64(instances),
			float64(wayupUnsafe)/float64(instances))
	}
	return tbl, nil
}

// E4Rounds regenerates the PODC'15 shape: rounds needed by relaxed
// loop freedom (Peacock) versus strong loop freedom (greedy) as the
// path length grows, on the adversarial families and random instances.
func E4Rounds(seed int64) (*metrics.Table, error) {
	tbl := metrics.NewTable("family", "n", "peacock_rounds", "greedy_slf_rounds")
	for _, family := range []string{"reversal", "staircase", "nested", "random"} {
		for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
			var in *core.Instance
			switch family {
			case "reversal":
				ti := topo.Reversal(n)
				in = core.MustInstance(ti.Old, ti.New, 0)
			case "staircase":
				ti := topo.Staircase(n)
				in = core.MustInstance(ti.Old, ti.New, 0)
			case "nested":
				ti := topo.Nested(n)
				in = core.MustInstance(ti.Old, ti.New, 0)
			case "random":
				rng := rand.New(rand.NewSource(seed + int64(n)))
				ti := topo.RandomTwoPath(rng, n, false)
				in = core.MustInstance(ti.Old, ti.New, 0)
			}
			p, err := core.Peacock(in)
			if err != nil {
				return nil, err
			}
			g, err := core.GreedySLF(in)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(family, n, p.Depth(), g.Depth())
		}
	}
	return tbl, nil
}

// E5Compute measures scheduler computation time per instance size —
// the control-plane cost of transient security.
func E5Compute(seed int64) (*metrics.Table, error) {
	tbl := metrics.NewTable("n", core.AlgoPeacock, "greedy_slf", core.AlgoWayUp)
	for _, n := range []int{8, 32, 128, 512, 2048} {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		ti := topo.RandomTwoPath(rng, n, true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		timeIt := func(f func() error) (time.Duration, error) {
			const iters = 5
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / iters, nil
		}
		tp, err := timeIt(func() error { _, err := core.Peacock(in); return err })
		if err != nil {
			return nil, err
		}
		tg, err := timeIt(func() error { _, err := core.GreedySLF(in); return err })
		if err != nil {
			return nil, err
		}
		tw, err := timeIt(func() error { _, err := core.WayUp(in); return err })
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, tp, tg, tw)
	}
	return tbl, nil
}

// E6UpdateTimeVsN measures total live update time as the number of
// switches grows (reversal scenarios over loopback TCP).
func E6UpdateTimeVsN(seed int64) (*metrics.Table, error) {
	tbl := metrics.NewTable("n", "pending", "rounds", "update_time")
	for _, n := range []int{4, 8, 16, 32} {
		ti := topo.Reversal(n)
		bed, err := NewBed(ti.Graph, BedConfig{
			Jitter:  netem.Uniform{Min: 0, Max: time.Millisecond},
			Install: netem.Fixed(time.Millisecond),
			Seed:    seed + int64(n),
		})
		if err != nil {
			return nil, err
		}
		if err := bed.InstallOldPolicy(ti.Old); err != nil {
			bed.Close()
			return nil, err
		}
		in := core.MustInstance(ti.Old, ti.New, 0)
		plan, err := core.Peacock(in)
		if err != nil {
			bed.Close()
			return nil, err
		}
		job, err := bed.RunUpdateAlgorithm(in, plan.Algorithm, 0)
		if err != nil {
			bed.Close()
			return nil, err
		}
		tbl.AddRow(n, in.NumPending(), plan.Depth(), job.TotalDuration())
		bed.Close()
	}
	return tbl, nil
}

// E7JitterDose measures the dose-response between control-channel
// jitter and one-shot violations on the Fig.1 scenario (aggregated
// over several seeded runs per jitter level), with WayUp alongside as
// the zero line. The rate column normalizes by probes sent, since
// higher jitter also stretches the vulnerable window.
func E7JitterDose(seed int64) (*metrics.Table, error) {
	const reps = 3
	tbl := metrics.NewTable("jitter_max", "oneshot_violations", "oneshot_probes", "oneshot_rate", "wayup_violations", "wayup_probes")
	for _, jit := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		counts := map[string]trace.Stats{}
		for _, algo := range []string{core.AlgoOneShot, core.AlgoWayUp} {
			var agg trace.Stats
			for rep := 0; rep < reps; rep++ {
				var jitter netem.Latency
				if jit > 0 {
					jitter = netem.Uniform{Min: 0, Max: jit}
				}
				bed, err := fig1Bed(BedConfig{
					Jitter:  jitter,
					Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
					Seed:    seed + int64(jit) + int64(rep)*7919,
				})
				if err != nil {
					return nil, err
				}
				in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
				plan, err := core.PlanByName(in, algo, 0, false)
				if err != nil {
					bed.Close()
					return nil, err
				}
				prober := trace.NewProber(bed.Fabric, trace.Config{
					Ingress: 1, NWDst: FlowNWDst, Waypoint: topo.Fig1Waypoint,
					Interval: 50 * time.Microsecond,
				})
				stop := prober.Start(context.Background())
				if _, err := bed.RunUpdateAlgorithm(in, plan.Algorithm, 0); err != nil {
					stop()
					bed.Close()
					return nil, err
				}
				st := stop()
				agg.Sent += st.Sent
				agg.Delivered += st.Delivered
				agg.Bypasses += st.Bypasses
				agg.Loops += st.Loops
				agg.Drops += st.Drops
				bed.Close()
			}
			counts[algo] = agg
		}
		one := counts[core.AlgoOneShot]
		rate := 0.0
		if one.Sent > 0 {
			rate = float64(one.Violations()) / float64(one.Sent)
		}
		tbl.AddRow(jit,
			one.Violations(), one.Sent, rate,
			counts[core.AlgoWayUp].Violations(), counts[core.AlgoWayUp].Sent)
	}
	return tbl, nil
}

// E9MultiPolicy regenerates the multi-policy extension: joint versus
// sequential round counts and per-switch touches for k concurrent
// policies, on two substrates — random two-path instances over a
// 24-switch set, and valley-free reroutes on a 4-ary fat-tree
// datacenter fabric.
func E9MultiPolicy(seed int64) (*metrics.Table, error) {
	tbl := metrics.NewTable("substrate", "k", "joint_rounds", "sequential_rounds", "flowmods", "max_switch_touches")
	fattree := topo.FatTree(4)
	for _, substrate := range []string{"random24", "fattree4"} {
		for _, k := range []int{1, 2, 4, 8, 16} {
			rng := rand.New(rand.NewSource(seed + int64(k)))
			instances := make([]*core.Instance, 0, k)
			for attempts := 0; len(instances) < k && attempts < 100*k; attempts++ {
				var in *core.Instance
				switch substrate {
				case "random24":
					ti := topo.RandomTwoPath(rng, 24, false)
					in = core.MustInstance(ti.Old, ti.New, 0)
				case "fattree4":
					ti, err := topo.RandomFatTreePolicy(rng, fattree)
					if err != nil {
						return nil, err
					}
					in = core.MustInstance(ti.Old, ti.New, 0)
				}
				if in.NumPending() == 0 {
					continue // degenerate draw: nothing to update
				}
				instances = append(instances, in)
			}
			joint, err := core.NewJointUpdate(instances, core.MustScheduler(core.AlgoPeacock), 0)
			if err != nil {
				return nil, err
			}
			maxTouch := 0
			if summary := joint.TouchSummary(); len(summary) > 0 {
				maxTouch = summary[0].Touches // sorted descending
			}
			tbl.AddRow(substrate, k, joint.NumRounds(), joint.SequentialRounds(), joint.TotalFlowMods(), maxTouch)
		}
	}
	return tbl, nil
}

// E10Result carries the aggregate of one E10 run alongside its table —
// the reproducible event count the benchmark and tests pin.
type E10Result struct {
	Table *metrics.Table
	// Switches is the fat-tree's switch count.
	Switches int
	// Events is the total number of FlowMod delivery events executed
	// across all policies and algorithms — a pure function of the seed.
	Events int
	// Violations counts violating transient states per algorithm.
	Violations map[string]int
}

// E10VirtualFatTree runs datacenter-scale updates entirely in virtual
// time: `policies` random valley-free reroutes on a k-ary fat-tree
// with ≈10k switches (k=90 ⇒ 10125), each replayed on the discrete-
// event clock under PAM'15-shaped control and install latencies, with
// transient security checked after every single delivery event. The
// one-shot baseline racks up violating transient states; peacock stays
// clean — at a scale where the TCP testbed would need hours, in
// seconds of wall-clock time. Columns: algorithm, policies, events,
// violating events, affected policies, mean virtual makespan.
func E10VirtualFatTree(k, policies int, seed int64) (*E10Result, error) {
	k, policies = orDefault(k, 90), orDefault(policies, 200) // 5k²/4 = 10125 switches
	// One policy set; both algorithms replay the same instances under
	// the same per-policy latency seeds.
	switches, instances, err := fleet(k, policies, seed)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("algorithm", "policies", "events", "violating_events", "affected_policies", "mean_makespan")
	res := &E10Result{Table: tbl, Switches: switches, Violations: make(map[string]int)}
	props := core.NoBlackhole | core.RelaxedLoopFreedom
	for _, algo := range []string{core.AlgoPeacock, core.AlgoOneShot} {
		events, violations, affected := 0, 0, 0
		var makespan metrics.Histogram
		for p, in := range instances {
			plan, err := core.PlanByName(in, algo, 0, false)
			if err != nil {
				return nil, err
			}
			rep, err := explore.Timed(in, plan, explore.TimedOptions{
				Ctrl:    ctrlDist,
				Install: installDist,
				Barrier: barrierDist,
				Props:   props,
				Seed:    seed ^ int64(p+1)<<20,
			})
			if err != nil {
				return nil, err
			}
			events += rep.Events
			violations += rep.Violations
			if rep.Violations > 0 {
				affected++
			}
			makespan.Record(rep.Makespan)
		}
		res.Events += events
		res.Violations[algo] = violations
		tbl.AddRow(algo, len(instances), events, violations, affected, makespan.Mean())
	}
	return res, nil
}

// E12SynthGap quantifies every heuristic's optimality gap against the
// counterexample-guided synthesizer (internal/synth) on the paper's
// Figure 1 instance, a random fat-tree(8) reroute, and Comb(12,8).
// Gaps are heuristic − synthesized (positive means the heuristic is
// worse); the source column records whether the CEGIS loop's own plan
// won the portfolio or a heuristic still did.
func E12SynthGap(seed int64) (*metrics.Table, error) {
	ft, err := topo.RandomFatTreePolicy(rand.New(rand.NewSource(seed)), topo.FatTree(8))
	if err != nil {
		return nil, err
	}
	comb := topo.Comb(12, 8)
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"fig1", core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)},
		{"fattree8", core.MustInstance(ft.Old, ft.New, ft.Waypoint)},
		{"comb12x8", core.MustInstance(comb.Old, comb.New, comb.Waypoint)},
	}
	tbl := metrics.NewTable("instance", "algorithm", "depth", "synth_depth",
		"depth_gap", "edge_gap", "crit_gap", "ctrl_gap", "peer_gap", "synth_source")
	for _, tc := range cases {
		rep, err := synth.Compare(tc.in, synth.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		for _, row := range rep.Rows {
			tbl.AddRow(tc.name, row.Algorithm, row.Heuristic.Depth, row.Synth.Depth,
				row.DepthGap, row.EdgeGap, row.CriticalGap, row.CtrlGap, row.PeerGap, row.SynthSource)
		}
	}
	return tbl, nil
}

// E13Result carries the aggregate of one E13 run alongside its table —
// the reproducible fault/rollback counters the benchmark and tests pin.
type E13Result struct {
	Table *metrics.Table
	// Switches is the fat-tree's switch count.
	Switches int
	// Events counts FlowMod delivery events, forward and rollback,
	// across all fault rates — a pure function of the seed.
	Events int
	// Faults counts injected confirmation losses.
	Faults int
	// Aborts counts updates that aborted mid-plan.
	Aborts int
	// RolledBack counts installs undone by verified rollbacks.
	RolledBack int
	// Violations counts rollback plans the verifier refused. The
	// experiment's invariant is zero: every installed prefix of a
	// peacock plan reverses through forward sub-ideals only.
	Violations int
}

// e13Replay executes one controller-driven reroute under a seeded loss
// model: per node a control+install+barrier latency and a
// confirmation-loss draw, taken in node-index order so the replay is a
// pure function of seed. On an abort the dispatched prefix is reversed
// and verified, and the rollback replayed on the same clock.
func e13Replay(in *core.Instance, seed int64, faultRate float64) (outcome, error) {
	var o outcome
	r, err := newReplay(in, seed, func(rng *rand.Rand) draw {
		return draw{latency: roundTrip(rng), lost: rng.Float64() < faultRate}
	})
	if err != nil {
		return o, err
	}
	for i, d := range r.dispatched {
		if d {
			o.events++
			if r.node[i].lost {
				o.faults++
			}
		}
	}
	if r.abortAt < 0 {
		o.makespan.Record(r.end)
		return o, nil
	}
	o.aborts = 1
	rev, err := r.reverse(&o, r.dispatched, &o.lossUndone)
	if err != nil || rev == nil {
		o.makespan.Record(r.abortAt)
		return o, err
	}
	// Rollback replay: fresh per-node draws in reverse-plan index
	// order, no losses (the controller keeps barriering undos).
	undo := make([]draw, len(rev.Nodes))
	for j := range undo {
		undo[j].latency = roundTrip(r.rng)
	}
	o.makespan.Record(r.abortAt + forward(rev, undo, nil).end)
	return o, nil
}

// E13FaultedRollback stress-tests recovery at datacenter scale:
// `policies` random valley-free reroutes on a k-ary fat-tree replayed
// on the virtual clock under seeded confirmation-loss rates. Every
// aborted update reverses its dispatched prefix; the reverse plan must
// verify (peacock rollbacks walk forward sub-ideals only — zero
// violations), and the total event count is a pure function of the
// seed regardless of worker count. Columns: fault rate, updates,
// faulted updates, aborts, delivery events, injected faults, installs
// rolled back, stuck installs, verifier refusals, mean virtual
// makespan.
func E13FaultedRollback(k, policies int, seed int64, workers int) (*E13Result, error) {
	k, policies = orDefault(k, 90), orDefault(policies, 200) // 5k²/4 = 10125 switches
	switches, instances, err := fleet(k, policies, seed)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("fault_rate", "updates", "faulted", "aborts", "events",
		"faults", "rolled_back", "stuck", "violations", "mean_makespan")
	res := &E13Result{Table: tbl, Switches: switches}
	for ri, rate := range []float64{0, 0.02, 0.10} {
		row, err := sweep(instances, seed, ri, workers, func(in *core.Instance, s int64) (outcome, error) {
			return e13Replay(in, s, rate)
		})
		if err != nil {
			return nil, fmt.Errorf("fault rate %.2f: %w", rate, err)
		}
		res.Events += row.events
		res.Faults += row.faults
		res.Aborts += row.aborts
		res.RolledBack += row.lossUndone
		res.Violations += row.violations
		// faulted = aborts: a dispatched node that loses its confirmation
		// always times the update out.
		tbl.AddRow(fmt.Sprintf("%.2f", rate), len(instances), row.aborts, row.aborts, row.events,
			row.faults, row.lossUndone, row.stuck, row.violations, row.makespan.Mean())
	}
	return res, nil
}

// E14Result carries the aggregate of one E14 run alongside its table —
// the reproducible crash-recovery counters the benchmark and tests pin.
type E14Result struct {
	Table *metrics.Table
	// Switches is the fat-tree's switch count.
	Switches int
	// Boundaries counts crash points replayed (every dispatch boundary
	// of every update, plus the pre-dispatch boundary).
	Boundaries int
	// Requeued counts boundaries recovered by plain re-admission (the
	// journal held no dispatched record).
	Requeued int
	// Adopted counts boundaries where the restarted controller adopted
	// the mid-flight frontier and resumed forward.
	Adopted int
	// RolledBack counts boundaries resolved through a verified reverse
	// plan (the wipe left switch state non-adoptable).
	RolledBack int
	// Events counts FlowMod delivery events: forward, resumed, and undo.
	Events int
	// Violations counts reverse plans the verifier refused. The
	// experiment's invariant is zero: every journaled dispatched set is
	// an order ideal of the peacock plan, and ideals reverse safely.
	Violations int
}

// e14Replay sweeps one controller-driven reroute's crash boundaries:
// a fault-free forward pass on seeded latencies (node-index order, a
// pure function of seed), then the engine dying the instant each
// dispatched record hits the journal — one record per node, appended
// in release order.
func e14Replay(in *core.Instance, seed int64, wipeRate float64) (outcome, error) {
	var o outcome
	r, err := newReplay(in, seed, func(rng *rand.Rand) draw { return draw{latency: roundTrip(rng)} })
	if err != nil {
		return o, err
	}
	// Journal append order: release instants, node index breaking ties.
	records := make([][]int, len(r.plan.Nodes))
	for i := range records {
		records[i] = []int{i}
	}
	sort.SliceStable(records, func(a, b int) bool {
		return r.releaseT[records[a][0]] < r.releaseT[records[b][0]]
	})
	// The re-run after the requeue ends when the last-released node confirms.
	o.resume.Record(r.confirmT[records[len(records)-1][0]])
	err = r.crashSweep(&o, records, wipeRate)
	return o, err
}

// E14CrashRecovery quantifies crash-restart recovery at fat-tree
// scale: `policies` random valley-free reroutes, each killed at every
// dispatch boundary under seeded switch-wipe rates and recovered by
// the journal-replay decision procedure (adopt the mid-flight frontier
// when the surviving switch state is an order ideal covering all
// journaled confirms, else verified rollback). Invariants: every
// boundary resolves terminal, zero verifier refusals, and all counters
// are a pure function of the seed regardless of worker count. Columns:
// wipe rate, updates, crash boundaries, requeues, adoptions, verified
// rollbacks, installs undone, delivery events, verifier refusals,
// stuck installs, mean resumed makespan.
func E14CrashRecovery(k, policies int, seed int64, workers int) (*E14Result, error) {
	k, policies = orDefault(k, 40), orDefault(policies, 100) // 5k²/4 = 2000 switches
	switches, instances, err := fleet(k, policies, seed)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("wipe_rate", "updates", "boundaries", "requeued", "adopted",
		"rolled_back", "undone", "events", "violations", "stuck", "mean_resume_makespan")
	res := &E14Result{Table: tbl, Switches: switches}
	for ri, rate := range []float64{0, 0.10, 0.25} {
		row, err := sweep(instances, seed, ri, workers, func(in *core.Instance, s int64) (outcome, error) {
			return e14Replay(in, s, rate)
		})
		if err != nil {
			return nil, fmt.Errorf("wipe rate %.2f: %w", rate, err)
		}
		res.Boundaries += row.boundaries
		res.Requeued += row.requeued
		res.Adopted += row.adopted
		res.RolledBack += row.rolledBack
		res.Events += row.events
		res.Violations += row.violations
		tbl.AddRow(fmt.Sprintf("%.2f", rate), len(instances), row.boundaries, row.requeued, row.adopted,
			row.rolledBack, row.crashUndone, row.events, row.violations, row.stuck, row.resume.Mean())
	}
	return res, nil
}

// E15Result carries the aggregate of one E15 soak alongside its table —
// the reproducible counters the benchmark and tests pin.
type E15Result struct {
	Table *metrics.Table
	// Switches is the fat-tree's switch count (~100k at the soak tier).
	Switches int
	// Updates is the number of reroutes replayed per rate combination.
	Updates int
	// Events counts FlowMod delivery events across every phase:
	// forward, loss-triggered rollback, crash-resume and crash-undo.
	Events int
	// PeerAcks counts cross-switch releases of decentralized dispatch.
	PeerAcks int
	// Aborts counts updates aborted by a lost confirmation.
	Aborts int
	// LossRolledBack counts installs undone by loss-triggered verified
	// rollbacks; CrashRolledBack counts crash boundaries resolved by a
	// verified reverse plan.
	LossRolledBack  int
	CrashRolledBack int
	// Boundaries counts crash points swept — one per batched journal
	// record (a release wave journals as one grouped dispatched-delta),
	// plus the pre-dispatch boundary.
	Boundaries int
	// Requeued and Adopted split the non-rollback crash recoveries.
	Requeued int
	Adopted  int
	// JournalRecords counts batched dispatched-delta appends the replays
	// modelled; JournalNodes counts the plan nodes those records carried.
	// Their ratio is the write-ahead batching factor — the compaction
	// pressure relief the dispatcher's wave batching buys (nodes-per-append; the
	// per-append cost itself is BenchmarkJournalCompaction's number).
	JournalRecords int
	JournalNodes   int
	// Violations counts reverse plans the verifier refused. The soak's
	// invariant is zero across both rollback flavors.
	Violations int
}

// e15Replay soaks one reroute through the decentralized dispatch model:
// peer acks release DAG successors switch-to-switch (a data-plane hop
// instead of a controller round trip; intra-switch releases are free)
// under the E13 confirmation-loss model, then — when the forward pass
// survives — the E14 crash sweep over the *batched* write-ahead records
// of the dispatcher: each release wave journals as one grouped
// dispatched-delta, so the controller can only die between waves. All
// randomness is drawn in node-index order from seed.
func e15Replay(in *core.Instance, seed int64, lossRate, wipeRate float64) (outcome, error) {
	var o outcome
	r, err := newReplay(in, seed, func(rng *rand.Rand) draw {
		return draw{
			start:   ctrlDist.Sample(rng), // plan-push arrival
			latency: installDist.Sample(rng),
			hop:     peerDist.Sample(rng),
			lost:    rng.Float64() < lossRate, // agent stall
		}
	})
	if err != nil {
		return o, err
	}
	// Batched write-ahead accounting: every release wave (plan layer)
	// with at least one dispatched node is one grouped journal record.
	// Peer acks: one per cross-switch edge whose producer confirmed and
	// whose consumer was released.
	nodes, layers := r.plan.Nodes, r.plan.NodeLayers()
	waves := make([][]int, r.plan.Depth())
	for i, d := range r.dispatched {
		if !d {
			continue
		}
		o.events++
		waves[layers[i]] = append(waves[layers[i]], i)
		for _, d := range nodes[i].Deps {
			if !r.node[d].lost && nodes[d].Switch != nodes[i].Switch {
				o.peerAcks++
			}
		}
	}
	for _, w := range waves {
		if len(w) > 0 {
			o.journalRecords++
			o.journalNodes += len(w)
		}
	}
	if r.abortAt < 0 {
		o.makespan.Record(r.end)
		err = r.crashSweep(&o, waves, wipeRate)
		return o, err
	}
	o.aborts = 1
	o.makespan.Record(r.abortAt)
	_, err = r.reverse(&o, r.dispatched, &o.lossUndone)
	return o, err
}

// E15Soak is the 100k-switch soak tier: `policies` random valley-free
// reroutes on a k-ary fat-tree, each replayed through the decentralized
// dispatch model on virtual time under combined stress — the
// E13 confirmation-loss model on the forward pass and the E14
// crash-boundary sweep on surviving runs, with crash points at the
// *batched* write-ahead records the PR-10 dispatcher appends (one per
// release wave). Invariants: zero verifier refusals across both
// rollback flavors, and every counter a pure function of the seed
// regardless of worker count. Columns: loss rate, wipe rate, updates,
// aborts, peer acks, journaled batches, journaled nodes, crash
// boundaries, requeues, adoptions, crash rollbacks, delivery events,
// verifier refusals, mean virtual makespan.
func E15Soak(k, policies int, seed int64, workers int) (*E15Result, error) {
	k, policies = orDefault(k, 284), orDefault(policies, 100) // 5k²/4 = 100,820 switches: the 100k soak tier
	switches, instances, err := fleet(k, policies, seed)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("loss_rate", "wipe_rate", "updates", "aborts", "peer_acks",
		"journal_batches", "journal_nodes", "boundaries", "requeued", "adopted",
		"crash_rolled_back", "events", "violations", "mean_makespan")
	res := &E15Result{Table: tbl, Switches: switches, Updates: policies}
	combos := []struct{ loss, wipe float64 }{{0, 0}, {0.02, 0.10}, {0.05, 0.25}}
	for ri, cb := range combos {
		row, err := sweep(instances, seed, ri, workers, func(in *core.Instance, s int64) (outcome, error) {
			return e15Replay(in, s, cb.loss, cb.wipe)
		})
		if err != nil {
			return nil, fmt.Errorf("combo %d: %w", ri, err)
		}
		res.Events += row.events
		res.PeerAcks += row.peerAcks
		res.Aborts += row.aborts
		res.LossRolledBack += row.lossUndone
		res.Boundaries += row.boundaries
		res.Requeued += row.requeued
		res.Adopted += row.adopted
		res.CrashRolledBack += row.rolledBack
		res.JournalRecords += row.journalRecords
		res.JournalNodes += row.journalNodes
		res.Violations += row.violations
		tbl.AddRow(fmt.Sprintf("%.2f", cb.loss), fmt.Sprintf("%.2f", cb.wipe),
			len(instances), row.aborts, row.peerAcks, row.journalRecords, row.journalNodes,
			row.boundaries, row.requeued, row.adopted, row.rolledBack, row.events,
			row.violations, row.makespan.Mean())
	}
	return res, nil
}
