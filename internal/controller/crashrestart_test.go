package controller

// E14: the crash-restart chaos suite. A two-flow run on the Fig. 1
// topology is killed at every dispatch boundary — the engine dies the
// instant the k-th dispatched record hits the journal — and a fresh
// controller recovers from the journal against the live switch fleet.
// The invariants, per boundary:
//
//   - every recovered job reaches a terminal phase: done (adopted and
//     completed, or requeued and re-run) or failed with a verified
//     rollback — never stuck, never an unverified or refused rollback;
//   - the data plane ends consistent per flow: probes deliver along
//     the old path or the new path in full, no blackholes, no
//     stitched-together routes;
//   - write-ahead holds: a job with no dispatched record recovers by
//     plain re-admission.
//
// Five sweeps share the runner. The virtual-clock sweep runs the
// workload fault-free under simclock/AutoAdvance — the controller
// crash is the injected fault — and exercises adopt-and-resume plus
// requeue. The power-loss sweep is that run one switch per wave, with
// the machine dying instead of the process: the journal also loses
// every byte appended since its last fsync, so the dispatched records
// of the waves since then are gone while their FlowMods may have
// landed, and recovery exercises requeue, adoption and rollback. The
// wall-clock sweep adds the E13-style switch fault (a
// new-path-only switch crashes after its first FlowMod and wipes its
// table, then reconnects), so recovery composes with the verified
// reverse-plan rollback of PR 8; it runs on the wall clock because a
// rebooting switch takes real milliseconds the virtual driver would
// leap past. The two-phase sweeps run flow A alone, as a two-phase
// job with cleanup, under process death and under power loss: every
// run must end on exactly the new path or with exactly the tables the
// job started from.

import (
	"context"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// crashRestartFlows are the two updates of the E14 run. Flow A is the
// paper's Fig. 1 reroute; flow B rides the 3→12 sub-routes. Switch 8 —
// new-path-only for A, untouched by B — carries the switch fault in
// the faulted sweep, so wiping it cannot damage B's rules.
var (
	crashFlowAOld = topo.Fig1OldPath
	crashFlowANew = topo.Fig1NewPath
	crashFlowBOld = topo.Path{3, 4, 5, 6, 12}
	crashFlowBNew = topo.Path{3, 9, 10, 11, 12}
)

const crashFaultSwitch topo.NodeID = 8

type crashRestartOpts struct {
	virtual   bool // simclock + AutoAdvance, no switch fault
	faulted   bool // wall clock + switch crash-wipe fault and reconnect
	powerLoss bool // the crash also drops the journal's unsynced tail
	oneByOne  bool // one switch per round: a job journals a wave per switch
	twoPhase  bool // flow A alone, as a two-phase job with cleanup
}

// crashRun is what one boundary of a sweep did: whether the crash
// fired — once a boundary exceeds the run's dispatch count the workload
// just completes, and the sweep is done — the recovery stats, whether
// every job ended done, and every switch's table at the end.
type crashRun struct {
	fired bool
	stats RecoveryStats
	done  bool
	end   map[topo.NodeID]string
}

// crashRestartRun executes one boundary of a sweep: run the workload,
// kill engine and journal at the k-th dispatched record, restart,
// recover, and check every invariant.
func crashRestartRun(t *testing.T, boundary int, opts crashRestartOpts) crashRun {
	t.Helper()
	cfg := Config{Topology: topo.Fig1(), RoundTimeout: 700 * time.Millisecond}
	var sim *simclock.Sim
	if opts.virtual {
		sim = simclock.NewSim(time.Time{})
		stopDriver := sim.AutoAdvance(200 * time.Microsecond)
		defer stopDriver()
		cfg.Clock = sim
		cfg.RoundTimeout = 2 * time.Second
	}

	jpath := t.TempDir() + "/journal.wal"
	jl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jl

	g := cfg.Topology
	fabric := switchsim.NewFabric(g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: controller armed to die at the k-th dispatched record.
	// Crash before cancel: the journal stops taking records at the same
	// instant the engine loses its context, exactly like the process
	// dying mid-write.
	ctx1, cancel1 := context.WithCancel(ctx)
	defer cancel1()
	ctrl1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := ctrl1.Start(ctx1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var curAddr atomic.Value
	curAddr.Store(addr1)

	// Boundaries count dispatched *nodes*, whichever record shape
	// journaled them: a grouped dispatched-batch append advances the
	// counter by its whole width (the batch is atomic — there is no
	// boundary inside it to crash at).
	var dispatched atomic.Int32
	jl.SetOnAppend(func(r journal.Record) {
		var w int32
		switch r.Kind {
		case journal.KindDispatched:
			w = 1
		case journal.KindDispatchedBatch:
			w = int32(len(r.Nodes))
		default:
			return
		}
		now := dispatched.Add(w)
		switch {
		case int(now) >= boundary && int(now-w) < boundary:
			if opts.powerLoss {
				jl.PowerLoss()
			} else {
				jl.Crash()
			}
			cancel1()
		case opts.powerLoss && now == w:
			// The run's first wave reaches the disk, as a delta sync does
			// every 32 nodes on a larger plan: a later power loss keeps it
			// and drops the waves after it, so its job comes back with
			// fewer dispatched nodes than its switches may have applied.
			jl.Sync() //nolint:errcheck // a failed sync only shrinks what survives
		}
	})

	switches := make(map[topo.NodeID]*switchsim.Switch, g.NumNodes())
	for _, n := range g.Nodes() {
		swCfg := switchsim.Config{Node: n}
		if opts.virtual {
			swCfg.Clock = sim
			swCfg.CtrlLatency = netem.Fixed(time.Millisecond)
			swCfg.InstallLatency = netem.Fixed(2 * time.Millisecond)
		}
		if opts.faulted && n == crashFaultSwitch {
			swCfg.Faults = switchsim.Faults{DisconnectAfterFlowMods: 1, WipeTableOnCrash: true}
		}
		sw, err := switchsim.NewSwitch(fabric, swCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr1); err != nil {
			t.Fatal(err)
		}
		defer sw.Stop()
		switches[n] = sw
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := ctrl1.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	waitCancel()

	// A keeper owns the faulted switch's connection for the rest of the
	// run: whenever the control loop dies — its own crash fault or a
	// controller kill — redial whichever controller is alive. The
	// rollback (or the resumed forward pass) must always find it back.
	swF := switches[crashFaultSwitch]
	if opts.faulted {
		go func() {
			for ctx.Err() == nil {
				if !swF.Connected() {
					time.Sleep(20 * time.Millisecond)             // reboot delay
					_ = swF.Connect(ctx, curAddr.Load().(string)) //nolint:errcheck // keeper retries
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	installCtx, installCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := ctrl1.InstallPath(installCtx, crashFlowAOld, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	if !opts.twoPhase {
		if err := ctrl1.InstallPath(installCtx, crashFlowBOld, flowMatch("10.0.0.3"), "h2"); err != nil {
			t.Fatal(err)
		}
	}
	installCancel()
	before := allTableRules(fabric)

	submit := func(old, new_ topo.Path, ip string) *Job {
		in := core.MustInstance(old, new_, 0)
		sched, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		if opts.oneByOne {
			// Peacock's order, one switch at a time: every state this
			// reaches is one Peacock's rounds reach, so it is as safe.
			var rounds [][]topo.NodeID
			for _, nd := range sched.Nodes {
				rounds = append(rounds, []topo.NodeID{nd.Switch})
			}
			sched = core.Layered(sched.Algorithm, sched.Guarantees, rounds)
		}
		job, err := ctrl1.Engine().SubmitPlan(in, sched, flowMatch(ip), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	var jobs []*Job
	if opts.twoPhase {
		in := core.MustInstance(crashFlowAOld, crashFlowANew, 0)
		job, err := submitTwoPhase(ctrl1.Engine(), in, flowMatch("10.0.0.2"), SubmitOptions{Cleanup: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs = []*Job{job}
	} else {
		jobs = []*Job{submit(crashFlowAOld, crashFlowANew, "10.0.0.2"), submit(crashFlowBOld, crashFlowBNew, "10.0.0.3")}
	}

	// The jobs settle in ctrl1's view — done, failed, or killed by the
	// boundary crash. Generous wall bound; virtual time flies.
	phase1Ctx, phase1Cancel := context.WithTimeout(context.Background(), 120*time.Second)
	for _, job := range jobs {
		_ = job.Wait(phase1Ctx) //nolint:errcheck // failure and cancellation are expected outcomes
	}
	phase1Cancel()
	if int(dispatched.Load()) < boundary {
		// The workload finished under this boundary: in the faulted
		// sweep flow A must have rolled back verified; the sweep is
		// complete either way.
		assertCrashRestartInvariants(t, boundary, jobs)
		assertCrashRestartEnd(t, boundary, fabric, opts, jobs, before)
		return crashRun{done: allDone(jobs), end: allTableRules(fabric)}
	}
	cancel1() // idempotent: the journal hook already fired

	// Phase 2: a fresh controller reopens the journal — torn tail and
	// all — and the fleet redials it.
	jl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Journal = jl2
	ctrl2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := ctrl2.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	curAddr.Store(addr2)
	for _, sw := range switches {
		if opts.faulted && sw == swF {
			continue // the keeper owns every redial of the faulted switch
		}
		if err := sw.Connect(ctx, addr2); err != nil {
			t.Fatal(err)
		}
	}
	waitCtx2, waitCancel2 := context.WithTimeout(ctx, 60*time.Second)
	if err := ctrl2.WaitForSwitches(waitCtx2, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	waitCancel2()

	recoverCtx, recoverCancel := context.WithTimeout(ctx, 120*time.Second)
	defer recoverCancel()
	stats, err := ctrl2.Engine().Recover(recoverCtx)
	if err != nil {
		t.Fatalf("boundary %d: recover: %v", boundary, err)
	}
	if stats.Failed != 0 {
		t.Fatalf("boundary %d: %d recovered jobs marked unrecoverable: %+v", boundary, stats.Failed, stats)
	}
	if stats.Replayed == 0 {
		t.Fatalf("boundary %d: crash fired but the journal replayed nothing", boundary)
	}

	jobs = ctrl2.Engine().Jobs()
	assertCrashRestartInvariants(t, boundary, jobs)
	assertCrashRestartEnd(t, boundary, fabric, opts, jobs, before)

	// The healthz surface agrees with the recovery outcome.
	if got, ok := ctrl2.Engine().Recovery(); !ok || got.Recovered() != stats.Recovered() {
		t.Fatalf("boundary %d: Recovery() = %+v ok=%v, want %+v", boundary, got, ok, stats)
	}
	return crashRun{fired: true, stats: stats, done: allDone(jobs), end: allTableRules(fabric)}
}

// allDone reports whether every job ended done.
func allDone(jobs []*Job) bool {
	for _, job := range jobs {
		if job.State() != JobDone {
			return false
		}
	}
	return true
}

// assertCrashRestartInvariants waits every job to a terminal phase and
// rejects all unverified outcomes.
func assertCrashRestartInvariants(t *testing.T, boundary int, jobs []*Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, job := range jobs {
		_ = job.Wait(ctx) //nolint:errcheck // a verified-rollback failure is a legal outcome
		st := job.State()
		if st != JobDone && st != JobFailed {
			t.Fatalf("boundary %d: job %d stuck in state %v", boundary, job.ID, st)
		}
		f := job.Failure()
		if f == nil {
			continue
		}
		assertRolledBackInstalled(t, f)
		switch f.Phase {
		case PhaseStuck, PhaseRollbackFailed:
			t.Fatalf("boundary %d: job %d ended %q (report %+v) — property violation", boundary, job.ID, f.Phase, f)
		case PhaseRolledBack:
			if !f.RollbackVerified {
				t.Fatalf("boundary %d: job %d rolled back without verification", boundary, job.ID)
			}
		}
	}
}

// assertCrashRestartDataPlane probes both flows: delivery along the
// old path or the new path in full, nothing in between.
func assertCrashRestartDataPlane(t *testing.T, boundary int, fabric *switchsim.Fabric) {
	t.Helper()
	cases := []struct {
		src      topo.NodeID
		nwDst    uint32
		old, new topo.Path
	}{
		{1, nwDstOf("10.0.0.2"), crashFlowAOld, crashFlowANew},
		{3, nwDstOf("10.0.0.3"), crashFlowBOld, crashFlowBNew},
	}
	for _, tc := range cases {
		res := fabric.Inject(tc.src, tc.nwDst, 64)
		if res.Outcome != switchsim.ProbeDelivered {
			t.Fatalf("boundary %d: probe from %d = %+v, want delivery", boundary, tc.src, res)
		}
		if !res.Visited.Equal(tc.old) && !res.Visited.Equal(tc.new) {
			t.Fatalf("boundary %d: probe from %d visited %v, want %v or %v in full",
				boundary, tc.src, res.Visited, tc.old, tc.new)
		}
	}
}

// assertCrashRestartEnd checks the data plane the run ended on: both
// flows' probes (assertCrashRestartDataPlane), or — for the lone
// two-phase job — exactly the new path when it finished, and every
// table exactly as before the job when it did not.
func assertCrashRestartEnd(t *testing.T, boundary int, fabric *switchsim.Fabric, opts crashRestartOpts, jobs []*Job, before map[topo.NodeID]string) {
	t.Helper()
	if !opts.twoPhase {
		assertCrashRestartDataPlane(t, boundary, fabric)
		return
	}
	if len(jobs) != 1 {
		t.Fatalf("boundary %d: %d jobs, want the one two-phase job", boundary, len(jobs))
	}
	if jobs[0].State() == JobDone {
		res := fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
		if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(crashFlowANew) {
			t.Fatalf("boundary %d: finished two-phase job, probe %+v, want delivery along %v", boundary, res, crashFlowANew)
		}
		return
	}
	for n, rules := range allTableRules(fabric) {
		if rules != before[n] {
			t.Fatalf("boundary %d: job %v; switch %d holds [%s], held [%s] before the job", boundary, jobs[0].Err(), n, rules, before[n])
		}
	}
}

// crashRestartSweep kills the engine at dispatch boundary 1, 2, ...
// until a run completes uncrashed (the first boundary past the run's
// dispatch count is the uncrashed baseline), and returns the aggregate
// recovery stats and every boundary's run, boundary b at index b-1.
func crashRestartSweep(t *testing.T, opts crashRestartOpts) (RecoveryStats, []crashRun) {
	t.Helper()
	const maxBoundaries = 64 // backstop far above the run's dispatch count
	var total RecoveryStats
	var runs []crashRun
	for boundary := 1; boundary <= maxBoundaries; boundary++ {
		r := crashRestartRun(t, boundary, opts)
		runs = append(runs, r)
		stats := r.stats
		t.Logf("boundary %d: crash fired=%v recovered=%+v", boundary, r.fired, stats)
		total.Replayed += stats.Replayed
		total.Terminal += stats.Terminal
		total.Requeued += stats.Requeued
		total.Adopted += stats.Adopted
		total.RolledBack += stats.RolledBack
		total.Failed += stats.Failed
		if !r.fired {
			if boundary == 1 {
				t.Fatal("workload dispatched nothing; the sweep never crashed the engine")
			}
			return total, runs
		}
	}
	t.Fatalf("run still dispatching after %d boundaries", maxBoundaries)
	return total, runs
}

// TestCrashRestartRecovery sweeps the controller kill across every
// dispatch boundary of the fault-free run under simclock.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart sweep is not short")
	}
	total, _ := crashRestartSweep(t, crashRestartOpts{virtual: true})
	// Coverage, not luck: boundary 1 catches flow B pre-dispatch
	// (requeue), and every mid-flight boundary must reconcile.
	if total.Requeued == 0 {
		t.Errorf("sweep never requeued an undispatched job: %+v", total)
	}
	if total.Adopted+total.RolledBack == 0 {
		t.Errorf("sweep never reconciled a mid-flight job: %+v", total)
	}
}

// TestCrashRestartPowerLoss sweeps a power loss across every dispatch
// boundary under simclock, one switch per wave: the journal keeps only
// what an fsync covered — the admits, terminals, and the run's first
// wave, which the hook syncs — so a mid-flight job comes back with no
// dispatched record, or with fewer dispatched nodes than its switches
// applied. The first is requeued; the second is not adoptable (an
// applied node nothing on record ordered) and takes the verified
// rollback. The invariants are those of the process-death sweep.
func TestCrashRestartPowerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart sweep is not short")
	}
	total, _ := crashRestartSweep(t, crashRestartOpts{virtual: true, powerLoss: true, oneByOne: true})
	if total.Requeued == 0 {
		t.Errorf("power-loss sweep never requeued a job whose waves were all lost: %+v", total)
	}
	if total.RolledBack == 0 {
		t.Errorf("power-loss sweep never rolled back a job whose journal undercounts its switches: %+v", total)
	}
}

// TestCrashRestartFaultedRollback is the faulted sweep: the controller
// kill composes with a switch that crashes mid-update and wipes its
// table, so recovery lands on adopt-resume-then-abort or the verified
// reverse-plan path.
func TestCrashRestartFaultedRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart sweep is not short")
	}
	total, _ := crashRestartSweep(t, crashRestartOpts{faulted: true})
	if total.Requeued+total.Adopted+total.RolledBack == 0 {
		t.Errorf("faulted sweep recovered nothing: %+v", total)
	}
}

// TestCrashRestartTwoPhase sweeps the controller kill across every
// dispatch boundary of a two-phase job with cleanup: a restart rebuilds
// it from its admit record like any other job — none is marked
// unrecoverable — and it ends on exactly the new path or exactly the
// old tables. The kill at the commit wave's write-ahead record finds
// the prepare wave's tagged rules in every table and the commit not
// sent: an ideal of the plan, which the job resumes from. It is
// adopted and ends done, on exactly the tables the uncrashed run ends
// on.
func TestCrashRestartTwoPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart sweep is not short")
	}
	_, runs := crashRestartSweep(t, crashRestartOpts{virtual: true, twoPhase: true})
	// The prepare wave is the new path's interior; the commit, one node,
	// is the next wave.
	commit := len(crashFlowANew) - 2 + 1
	clean := runs[len(runs)-1]
	if len(runs) <= commit || !clean.done {
		t.Fatalf("sweep of %d boundaries, uncrashed run done=%v: the commit wave is boundary %d", len(runs), clean.done, commit)
	}
	r := runs[commit-1]
	if !r.fired || r.stats.Adopted != 1 || !r.done {
		t.Fatalf("kill at the commit's write-ahead: fired=%v recovered=%+v done=%v, want adopted and done", r.fired, r.stats, r.done)
	}
	if !maps.Equal(r.end, clean.end) {
		t.Fatalf("kill at the commit's write-ahead ends on %v, the uncrashed run on %v", r.end, clean.end)
	}
}

// TestCrashRestartTwoPhasePowerLoss is the two-phase sweep with the
// machine dying: the journal keeps only what an fsync covered.
func TestCrashRestartTwoPhasePowerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart sweep is not short")
	}
	total, _ := crashRestartSweep(t, crashRestartOpts{virtual: true, powerLoss: true, twoPhase: true})
	if total.Requeued == 0 || total.RolledBack == 0 {
		t.Errorf("two-phase power-loss sweep never requeued or never rolled back: %+v", total)
	}
}
