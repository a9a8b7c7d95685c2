// Bench harness: one benchmark per experiment (see README.md for the
// experiment index). Benchmarks report wall-clock per operation plus
// domain metrics (rounds, violations) via b.ReportMetric, so
// `go test -bench=.` regenerates the numbers behind every table.
// cmd/experiments prints the full tables.
//
// BenchmarkWalkBitset and BenchmarkVerifyParallel additionally record
// the representation refactor: the dense-bitset state core and the
// parallel verification engine against map-based, single-threaded
// reference implementations matching the seed.
package tsu_test

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"tsu/internal/controller"
	"tsu/internal/core"
	"tsu/internal/experiments"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/trace"
	"tsu/internal/verify"
)

// runEngineUpdate drives the update through the engine directly (no
// HTTP): the timed benchmark regions measure barrier-confirmed update
// execution alone, keeping the numbers comparable across revisions —
// API-transport overhead is not part of the paper's metric.
func runEngineUpdate(bed *experiments.Bed, in *core.Instance, sched *core.Plan) error {
	job, err := bed.Ctrl.Engine().SubmitPlan(in, sched, openflow.ExactNWDst(net.ParseIP(experiments.FlowIP)), controller.SubmitOptions{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	return job.Wait(ctx)
}

// BenchmarkE1Fig1WayUp runs the paper's demo scenario per iteration:
// full WayUp update on the live Figure 1 testbed with probes; reports
// violations (always 0) and rounds.
func BenchmarkE1Fig1WayUp(b *testing.B) {
	violations, rounds := 0, 0
	for i := 0; i < b.N; i++ {
		bed, err := experiments.NewBed(topo.Fig1(), experiments.BedConfig{
			Jitter:  netem.Uniform{Min: 0, Max: 2 * time.Millisecond},
			Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := bed.InstallOldPolicy(topo.Fig1OldPath); err != nil {
			bed.Close()
			b.Fatal(err)
		}
		in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
		sched, err := core.WayUp(in)
		if err != nil {
			bed.Close()
			b.Fatal(err)
		}
		prober := trace.NewProber(bed.Fabric, trace.Config{
			Ingress: 1, NWDst: experiments.FlowNWDst, Waypoint: topo.Fig1Waypoint,
			Interval: 100 * time.Microsecond,
		})
		stop := prober.Start(context.Background())
		if err := runEngineUpdate(bed, in, sched); err != nil {
			stop()
			bed.Close()
			b.Fatal(err)
		}
		st := stop()
		violations += st.Violations()
		rounds = sched.Depth()
		bed.Close()
	}
	b.ReportMetric(float64(violations)/float64(b.N), "violations/op")
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE2UpdateTime measures the paper's stated metric — flow-table
// update time — per algorithm on the live Figure 1 testbed.
func BenchmarkE2UpdateTime(b *testing.B) {
	for _, algo := range []string{core.AlgoOneShot, core.AlgoPeacock, core.AlgoWayUp, core.AlgoGreedySLF} {
		b.Run(algo, func(b *testing.B) {
			var totalRounds int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bed, err := experiments.NewBed(topo.Fig1(), experiments.BedConfig{
					Jitter:  netem.Uniform{Min: 0, Max: time.Millisecond},
					Install: netem.Fixed(time.Millisecond),
					Seed:    int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := bed.InstallOldPolicy(topo.Fig1OldPath); err != nil {
					bed.Close()
					b.Fatal(err)
				}
				in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
				sched, err := core.PlanByName(in, algo, 0, false)
				if err != nil {
					bed.Close()
					b.Fatal(err)
				}
				b.StartTimer()
				if err := runEngineUpdate(bed, in, sched); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				totalRounds = sched.Depth()
				bed.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(totalRounds), "rounds")
		})
	}
}

// BenchmarkE3WaypointViolations verifies one-shot vs wayup on a random
// waypoint instance per iteration; reports the one-shot unsafe rate.
func BenchmarkE3WaypointViolations(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	props := core.NoBlackhole | core.WaypointEnforcement
	unsafe := 0
	for i := 0; i < b.N; i++ {
		ti := topo.RandomTwoPath(rng, 16, true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		if !verify.Plan(in, core.OneShot(in), props, verify.Options{Budget: 1 << 16, Samples: 256}).OK() {
			unsafe++
		}
		w, err := core.WayUp(in)
		if err != nil {
			b.Fatal(err)
		}
		if !verify.Plan(in, w, props, verify.Options{Budget: 1 << 16, Samples: 256}).OK() {
			b.Fatal("wayup produced an unsafe schedule")
		}
	}
	b.ReportMetric(float64(unsafe)/float64(b.N), "oneshot-unsafe/op")
}

// BenchmarkE4Rounds schedules the adversarial families; reports round
// counts (the log-vs-linear separation).
func BenchmarkE4Rounds(b *testing.B) {
	for _, n := range []int{64, 256} {
		ti := topo.Nested(n)
		in := core.MustInstance(ti.Old, ti.New, 0)
		b.Run("nested/peacock/n="+itoa(n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				s, err := core.Peacock(in)
				if err != nil {
					b.Fatal(err)
				}
				rounds = s.Depth()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run("nested/greedy-slf/n="+itoa(n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				s, err := core.GreedySLF(in)
				if err != nil {
					b.Fatal(err)
				}
				rounds = s.Depth()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkE5SchedulerCompute measures pure scheduling cost.
func BenchmarkE5SchedulerCompute(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		rng := rand.New(rand.NewSource(int64(n)))
		ti := topo.RandomTwoPath(rng, n, true)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		b.Run("peacock/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Peacock(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("wayup/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.WayUp(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6UpdateTimeVsN measures the live update time as the
// topology grows.
func BenchmarkE6UpdateTimeVsN(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ti := topo.Reversal(n)
				bed, err := experiments.NewBed(ti.Graph, experiments.BedConfig{
					Jitter:  netem.Uniform{Min: 0, Max: time.Millisecond},
					Install: netem.Fixed(time.Millisecond),
					Seed:    int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := bed.InstallOldPolicy(ti.Old); err != nil {
					bed.Close()
					b.Fatal(err)
				}
				in := core.MustInstance(ti.Old, ti.New, 0)
				sched, err := core.Peacock(in)
				if err != nil {
					bed.Close()
					b.Fatal(err)
				}
				b.StartTimer()
				if err := runEngineUpdate(bed, in, sched); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bed.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE7JitterDose runs one-shot updates under growing jitter and
// reports observed violations per run.
func BenchmarkE7JitterDose(b *testing.B) {
	for _, jitter := range []time.Duration{time.Millisecond, 4 * time.Millisecond} {
		b.Run("jitter="+jitter.String(), func(b *testing.B) {
			violations := 0
			for i := 0; i < b.N; i++ {
				bed, err := experiments.NewBed(topo.Fig1(), experiments.BedConfig{
					Jitter:  netem.Uniform{Min: 0, Max: jitter},
					Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
					Seed:    int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := bed.InstallOldPolicy(topo.Fig1OldPath); err != nil {
					bed.Close()
					b.Fatal(err)
				}
				in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
				prober := trace.NewProber(bed.Fabric, trace.Config{
					Ingress: 1, NWDst: experiments.FlowNWDst, Waypoint: topo.Fig1Waypoint,
					Interval: 50 * time.Microsecond,
				})
				stop := prober.Start(context.Background())
				if err := runEngineUpdate(bed, in, core.OneShot(in)); err != nil {
					stop()
					bed.Close()
					b.Fatal(err)
				}
				violations += stop().Violations()
				bed.Close()
			}
			b.ReportMetric(float64(violations)/float64(b.N), "violations/op")
		})
	}
}

// BenchmarkE8Codec measures the OpenFlow substrate: FlowMod
// encode/decode round trips (the per-update wire cost).
func BenchmarkE8Codec(b *testing.B) {
	fm := &openflow.FlowMod{
		Match:    openflow.ExactNWDst([]byte{10, 0, 0, 2}),
		Command:  openflow.FlowModify,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 3}},
	}
	fm.SetXid(1)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := openflow.Encode(fm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-pooled", func(b *testing.B) {
		// The live deployment path: AppendTo into a cycled buffer
		// (ofconn's wire pool) — zero allocations in steady state.
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = openflow.AppendTo(buf[:0], fm); err != nil {
				b.Fatal(err)
			}
		}
	})
	wire, err := openflow.Encode(fm)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := openflow.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	br := &openflow.BarrierRequest{}
	br.SetXid(2)
	b.Run("barrier-roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := openflow.Encode(br)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := openflow.Decode(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9MultiPolicy schedules k concurrent policies jointly.
func BenchmarkE9MultiPolicy(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			joint := 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				instances := make([]*core.Instance, 0, k)
				for len(instances) < k {
					ti := topo.RandomTwoPath(rng, 24, false)
					in := core.MustInstance(ti.Old, ti.New, 0)
					if in.NumPending() == 0 {
						continue
					}
					instances = append(instances, in)
				}
				ju, err := core.NewJointUpdate(instances, core.MustScheduler(core.AlgoPeacock), 0)
				if err != nil {
					b.Fatal(err)
				}
				joint = ju.NumRounds()
			}
			b.ReportMetric(float64(joint), "rounds")
		})
	}
}

// BenchmarkE10VirtualFatTree runs the 10k-switch fat-tree update
// scenario (200 random reroutes, peacock vs one-shot, per-event
// transient-security checks) entirely under the virtual clock. The
// acceptance bar is < 5s wall-clock per run with a reproducible event
// count — the scale the discrete-event simulator unlocks over the TCP
// testbed.
func BenchmarkE10VirtualFatTree(b *testing.B) {
	events := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10VirtualFatTree(90, 200, 17)
		if err != nil {
			b.Fatal(err)
		}
		if events != 0 && events != res.Events {
			b.Fatalf("event count not reproducible: %d vs %d", events, res.Events)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkE13FaultedRollback runs the 10k-switch fat-tree fault
// scenario (200 random reroutes under seeded confirmation-loss rates,
// verified rollback of every aborted prefix) with four workers. The
// acceptance bar is a reproducible event count, zero verifier
// refusals, and a nonzero abort/rollback stream — recovery exercised
// at the scale the virtual clock unlocks.
func BenchmarkE13FaultedRollback(b *testing.B) {
	events, rolledBack := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.E13FaultedRollback(90, 200, 17, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("verifier refused %d rollbacks", res.Violations)
		}
		if events != 0 && events != res.Events {
			b.Fatalf("event count not reproducible: %d vs %d", events, res.Events)
		}
		events, rolledBack = res.Events, res.RolledBack
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(rolledBack), "rolled_back")
}

// BenchmarkE14CrashRecovery runs the 2000-switch crash-boundary sweep
// (100 random reroutes, each killed at every dispatch boundary under
// seeded switch-wipe rates, recovered by journal replay) with four
// workers. The acceptance bar is a reproducible event count, zero
// verifier refusals, and both recovery modes exercised: mid-flight
// frontiers adopted and non-adoptable state rolled back verified.
func BenchmarkE14CrashRecovery(b *testing.B) {
	events, adopted, rolledBack := 0, 0, 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.E14CrashRecovery(40, 100, 17, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("verifier refused %d recovery rollbacks", res.Violations)
		}
		if res.Adopted == 0 || res.RolledBack == 0 {
			b.Fatalf("sweep missed a recovery mode: %+v", res)
		}
		if events != 0 && events != res.Events {
			b.Fatalf("event count not reproducible: %d vs %d", events, res.Events)
		}
		events, adopted, rolledBack = res.Events, res.Adopted, res.RolledBack
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(adopted), "adopted")
	b.ReportMetric(float64(rolledBack), "rolled_back")
}

// BenchmarkE15Soak is the 100k-switch soak tier: 100 random reroutes
// on FatTree(284) — 100,820 switches — each replayed through the
// decentralized dispatch model on virtual time under the E13
// confirmation-loss model, with surviving runs swept across E14-style
// crash boundaries placed at the batched write-ahead records (one
// grouped dispatched-delta per release wave). The acceptance bar is a
// run that completes with zero verifier refusals, bit-reproducible
// counters, both crash-recovery modes exercised, and write-ahead
// batches that group more than one node per append (the journal
// compaction pressure relief; the per-append cost is
// BenchmarkJournalCompaction's number).
func BenchmarkE15Soak(b *testing.B) {
	events, peerAcks := 0, 0
	var batchWidth float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E15Soak(0, 0, 17, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.Switches < 100000 {
			b.Fatalf("soak tier ran on %d switches, want >= 100000", res.Switches)
		}
		if res.Violations != 0 {
			b.Fatalf("verifier refused %d rollbacks", res.Violations)
		}
		if res.Adopted == 0 || res.CrashRolledBack == 0 || res.Aborts == 0 {
			b.Fatalf("soak missed a stress mode: %+v", res)
		}
		if res.JournalNodes <= res.JournalRecords {
			b.Fatalf("write-ahead batching not observed: %d records for %d nodes",
				res.JournalRecords, res.JournalNodes)
		}
		if events != 0 && events != res.Events {
			b.Fatalf("event count not reproducible: %d vs %d", events, res.Events)
		}
		events, peerAcks = res.Events, res.PeerAcks
		batchWidth = float64(res.JournalNodes) / float64(res.JournalRecords)
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(peerAcks), "peer_acks")
	b.ReportMetric(batchWidth, "journal_batch_width")
}

// BenchmarkWalkBitset measures the forwarding walk on the dense bitset
// state core against an equivalent map-based walker (the seed's State
// representation), with half the pending switches flipped. The bitset
// walk is the primitive under every scheduler and the verifier, so this
// ratio is the refactor's headline number.
func BenchmarkWalkBitset(b *testing.B) {
	for _, n := range []int{64, 512} {
		ti := topo.Reversal(n)
		in := core.MustInstance(ti.Old, ti.New, 0)
		pending := in.Pending()
		half := pending[:len(pending)/2]
		st := in.StateOf(half...)
		mapSt := make(map[topo.NodeID]bool, len(half))
		for _, v := range half {
			mapSt[v] = true
		}
		b.Run("bitset/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.Walk(st)
			}
		})
		b.Run("map/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mapWalk(in, mapSt)
			}
		})
	}
}

// BenchmarkVerifyParallel pits the parallel bitset verification engine
// against a single-threaded map-based reference verifier (the seed's
// representation and threading model) on a batch of random 8-pod
// fat-tree policies. This PR's acceptance bar is >= 3x throughput for
// bitset-parallel over map-serial.
func BenchmarkVerifyParallel(b *testing.B) {
	g := topo.FatTree(8)
	rng := rand.New(rand.NewSource(88))
	const flows = 256
	props := core.NoBlackhole | core.RelaxedLoopFreedom | core.StrongLoopFreedom
	var tasks []verify.Task
	for len(tasks) < flows {
		ti, err := topo.RandomFatTreePolicy(rng, g)
		if err != nil {
			b.Fatal(err)
		}
		in := core.MustInstance(ti.Old, ti.New, 0)
		if in.NumPending() == 0 {
			continue
		}
		sched, err := core.PlanByName(in, core.AlgoGreedySLF, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, verify.Task{Instance: in, Plan: sched, Props: props})
	}
	b.Run("bitset-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range verify.Batch(tasks, verify.Options{}) {
				if !r.OK() {
					b.Fatal(r)
				}
			}
		}
	})
	b.Run("bitset-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range verify.Batch(tasks, verify.Options{Workers: 1}) {
				if !r.OK() {
					b.Fatal(r)
				}
			}
		}
	})
	b.Run("map-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, task := range tasks {
				ok, exact := mapVerify(task.Instance, task.Plan, task.Props)
				if !exact {
					b.Fatal("map verifier exhausted its budget; comparison would not be work-equivalent")
				}
				if !ok {
					b.Fatal("map verifier rejected a safe schedule")
				}
			}
		}
	})
}

// mapWalk is the seed's forwarding walk: map-based updated-set and
// visited-set. Kept as the baseline BenchmarkWalkBitset compares
// against.
func mapWalk(in *core.Instance, upd map[topo.NodeID]bool) (topo.Path, core.Outcome) {
	var path topo.Path
	seen := make(map[topo.NodeID]bool)
	v := in.Src()
	for {
		path = append(path, v)
		if v == in.Old.Dst() {
			return path, core.Reached
		}
		if seen[v] {
			return path, core.Looped
		}
		seen[v] = true
		next, ok := nextHop(in, v, func(n topo.NodeID) bool { return upd[n] })
		if !ok {
			return path, core.Dropped
		}
		v = next
	}
}

// mapVerify is the seed's verifier: per round, the branching subset
// search over map-based states, single-threaded. It reports whether the
// schedule is transiently consistent for props and ends in the new
// path; exact=false means the budget ran out before the subset search
// completed (the real engine would fall back to sampling there, so the
// benchmark refuses the comparison). Baseline for
// BenchmarkVerifyParallel.
func mapVerify(in *core.Instance, s *core.Plan, props core.Property) (ok, exact bool) {
	done := make(map[topo.NodeID]bool)
	for _, round := range s.Layers() {
		if props.Has(core.StrongLoopFreedom) && !mapRoundSafeStrongLF(in, done, round) {
			return false, true
		}
		c := &mapChecker{
			in:       in,
			done:     done,
			inRound:  make(map[topo.NodeID]bool, len(round)),
			props:    props &^ core.StrongLoopFreedom,
			budget:   1 << 20,
			assigned: make(map[topo.NodeID]bool),
			onWalk:   make(map[topo.NodeID]bool),
		}
		for _, v := range round {
			if needsUpdate(in, v) && !done[v] {
				c.inRound[v] = true
			}
		}
		if c.step(in.Src()) {
			return false, true
		}
		if c.budget < 0 {
			return true, false
		}
		for _, v := range round {
			done[v] = true
		}
	}
	path, outcome := mapWalk(in, done)
	return outcome == core.Reached && path.Equal(in.New), true
}

type mapChecker struct {
	in       *core.Instance
	done     map[topo.NodeID]bool
	inRound  map[topo.NodeID]bool
	props    core.Property
	budget   int
	assigned map[topo.NodeID]bool
	onWalk   map[topo.NodeID]bool
}

func (c *mapChecker) updated(v topo.NodeID) bool {
	if c.done[v] {
		return true
	}
	set, ok := c.assigned[v]
	return ok && set
}

// step returns true when some subset of the round violates a property.
func (c *mapChecker) step(v topo.NodeID) bool {
	c.budget--
	if c.budget < 0 {
		return false
	}
	if v == c.in.Old.Dst() {
		return c.props.Has(core.WaypointEnforcement) && c.in.Waypoint != 0 && !c.onWalk[c.in.Waypoint]
	}
	if c.onWalk[v] {
		return c.props.Has(core.RelaxedLoopFreedom)
	}
	c.onWalk[v] = true
	defer delete(c.onWalk, v)
	if c.inRound[v] {
		if _, fixed := c.assigned[v]; !fixed {
			for _, set := range []bool{true, false} {
				c.assigned[v] = set
				if c.advance(v) {
					return true
				}
			}
			delete(c.assigned, v)
			return false
		}
	}
	return c.advance(v)
}

func (c *mapChecker) advance(v topo.NodeID) bool {
	next, ok := nextHop(c.in, v, c.updated)
	if !ok {
		return c.props.Has(core.NoBlackhole)
	}
	return c.step(next)
}

// mapRoundSafeStrongLF is the seed's polynomial double-edge test over
// map-based colors: every subset of round on top of done keeps the rule
// graph acyclic iff the graph with both edges at in-flight switches is
// acyclic.
func mapRoundSafeStrongLF(in *core.Instance, done map[topo.NodeID]bool, round []topo.NodeID) bool {
	inRound := make(map[topo.NodeID]bool, len(round))
	for _, v := range round {
		inRound[v] = true
	}
	edges := func(v topo.NodeID) []topo.NodeID {
		if v == in.Old.Dst() {
			return nil
		}
		var out []topo.NodeID
		if !needsUpdate(in, v) {
			if n, ok := nextHop(in, v, nil); ok {
				out = append(out, n)
			}
			return out
		}
		newSucc, _ := in.NewSucc(v)
		if done[v] {
			return append(out, newSucc)
		}
		if inRound[v] {
			out = append(out, newSucc)
		}
		if n, ok := in.OldSucc(v); ok {
			out = append(out, n)
		}
		return out
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[topo.NodeID]int)
	var visit func(v topo.NodeID) bool
	visit = func(v topo.NodeID) bool {
		color[v] = grey
		for _, n := range edges(v) {
			switch color[n] {
			case grey:
				return true
			case white:
				if visit(n) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for _, v := range append(append(topo.Path(nil), in.Old...), in.New...) {
		if color[v] == white && visit(v) {
			return false
		}
	}
	return true
}

func itoa(n int) string {
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

// BenchmarkSynthFig1 measures full counterexample-guided synthesis on
// the paper's Figure 1 instance (portfolio included), then reports the
// worst optimality gap any registered heuristic leaves against the
// synthesized plan — the headline number of the gap report.
func BenchmarkSynthFig1(b *testing.B) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	var plan *core.Plan
	var tr *synth.Transcript
	for i := 0; i < b.N; i++ {
		p, t, err := synth.Plan(in, 0, synth.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		plan, tr = p, t
	}
	b.StopTimer()
	b.ReportMetric(float64(plan.Depth()), "depth")
	b.ReportMetric(float64(tr.Iters), "refinements")
	reportWorstGap(b, in)
}

// BenchmarkSynthComb does the same on Comb(12,8) — 108 pending
// switches, the largest instance of the gap report, where the oracle
// runs sampled rather than exhaustive.
func BenchmarkSynthComb(b *testing.B) {
	ti := topo.Comb(12, 8)
	in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
	var plan *core.Plan
	var tr *synth.Transcript
	for i := 0; i < b.N; i++ {
		p, t, err := synth.Plan(in, 0, synth.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		plan, tr = p, t
	}
	b.StopTimer()
	b.ReportMetric(float64(plan.Depth()), "depth")
	b.ReportMetric(float64(tr.Iters), "refinements")
	reportWorstGap(b, in)
}

// reportWorstGap runs the gap report (outside the timed region) and
// records the largest per-heuristic depth and edge gaps.
func reportWorstGap(b *testing.B, in *core.Instance) {
	b.Helper()
	rep, err := synth.Compare(in, synth.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	depthGap, edgeGap := 0, 0
	for _, row := range rep.Rows {
		depthGap = max(depthGap, row.DepthGap)
		edgeGap = max(edgeGap, row.EdgeGap)
	}
	b.ReportMetric(float64(depthGap), "max-depth-gap")
	b.ReportMetric(float64(edgeGap), "max-edge-gap")
}

// needsUpdate reports whether v's rule changes: it has a new-path
// successor that is not its old one.
func needsUpdate(in *core.Instance, v topo.NodeID) bool {
	n, ok := in.NewSucc(v)
	o, onOld := in.OldSucc(v)
	return ok && (!onOld || n != o)
}

// nextHop is the seed's rule resolution: a switch whose rule changes
// forwards on its new rule once updated and on its old rule (if any)
// before; any other switch on its only rule. False means no rule (a drop)
// or the destination.
func nextHop(in *core.Instance, v topo.NodeID, updated func(topo.NodeID) bool) (topo.NodeID, bool) {
	n, onNew := in.NewSucc(v)
	o, onOld := in.OldSucc(v)
	if !onNew || (!onOld || n != o) && (updated == nil || !updated(v)) {
		return o, onOld
	}
	return n, true
}
