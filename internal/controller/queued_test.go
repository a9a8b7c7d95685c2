package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// slowSwitches gives every switch a fixed install latency.
func slowSwitches(install time.Duration) func(topo.NodeID) switchsim.Config {
	return func(n topo.NodeID) switchsim.Config {
		return switchsim.Config{Node: n, InstallLatency: netem.Fixed(install), Source: netem.NewSource(int64(n))}
	}
}

// jobGoroutines counts the goroutines that are some job's life.
func jobGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("(*Engine).runJob("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// steadyGoroutines is the goroutine count that holds for a few
// milliseconds: the least of eight samples 500 µs apart. A goroutine
// on its way out is gone within the window; a parked goroutine — what
// these tests count — outlasts it.
func steadyGoroutines() int {
	least := runtime.NumGoroutine()
	for i := 1; i < 8; i++ {
		time.Sleep(500 * time.Microsecond)
		least = min(least, runtime.NumGoroutine())
	}
	return least
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fig1Flips builds n jobs that flip one flow between Fig. 1's two paths,
// forward first: each conflicts with every other.
func fig1Flips(t *testing.T, e *Engine, n int, ip string, first SubmitOptions) []*Job {
	t.Helper()
	forward := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	backward := core.MustInstance(topo.Fig1NewPath, topo.Fig1OldPath, topo.Fig1Waypoint)
	jobs := make([]*Job, n)
	for i := range jobs {
		in, opts := forward, SubmitOptions{}
		if i%2 == 1 {
			in = backward
		}
		if i == 0 {
			opts = first
		}
		sched, err := core.WayUp(in)
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], err = e.planJob(in, sched, flowMatch(ip), opts); err != nil {
			t.Fatal(err)
		}
	}
	return jobs
}

// assertInOrder checks that each job's rounds ended before the next
// job's began.
func assertInOrder(t *testing.T, jobs []*Job) {
	t.Helper()
	for i := 1; i < len(jobs); i++ {
		prev, next := jobs[i-1].timings(), jobs[i].timings()
		if len(prev) == 0 || len(next) == 0 {
			t.Fatalf("job %d or %d recorded no rounds", jobs[i-1].ID, jobs[i].ID)
		}
		if jobs[i].at(next[0].Started).Before(jobs[i-1].at(prev[len(prev)-1].Finished)) {
			t.Fatalf("job %d started before job %d's last barrier", jobs[i].ID, jobs[i-1].ID)
		}
	}
}

// TestAdmissionWindowFreeOnceJobsAreDone fills the admission window,
// waits for every job, and expects the engine to be empty at that very
// moment: counters at zero and room for a second full window. A job
// that is visible as terminal while it still counts against admission
// gets a client that waits and resubmits refused with ErrQueueFull.
func TestAdmissionWindowFreeOnceJobsAreDone(t *testing.T) {
	tb := newTestbed(t, topo.Linear(4), nil)
	e := tb.ctrl.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	path := topo.Path{1, 2, 3, 4}
	in := core.MustInstance(path, path, 0) // nothing to update: empty, disjoint plans
	window := func() []*Job {
		jobs := make([]*Job, maxAdmitted)
		for i := range jobs {
			var err error
			if jobs[i], err = e.planJob(in, core.OneShot(in), flowMatch("10.0.0.2"), SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return jobs
	}
	for round := 0; round < 100; round++ {
		jobs := window()
		if err := e.enqueueAll(jobs); err != nil {
			t.Fatalf("window %d refused although every earlier job was seen done: %v", round, err)
		}
		for _, job := range jobs {
			if err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if q, r := e.QueueDepth(), e.RunningCount(); q+r != 0 {
			t.Fatalf("window %d: every job seen done, engine still counts %d queued + %d running", round, q, r)
		}
	}
}

// TestAdmissionDisjointJobsLaunchTogether submits 32 disjoint reroutes
// at once: all of them run from the moment they are admitted — nothing
// queues, and the batch takes about as long as one job, not one job per
// wave of a worker pool (four waves of eight took 4x; the bound leaves
// the race detector on a loaded box room for 32 jobs' CPU).
func TestAdmissionDisjointJobsLaunchTogether(t *testing.T) {
	const flows = 32
	g := topo.Grid(2*flows, 5)
	tb := newTestbedWithConfig(t, g, Config{Topology: g}, slowSwitches(20*time.Millisecond))
	e := tb.ctrl.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	batch := func(n int, back bool) []*Job {
		jobs := make([]*Job, n)
		for k := range jobs {
			in, rev, ip := benchFlow(k)
			if back {
				in = rev
			}
			sched, err := core.Peacock(in)
			if err != nil {
				t.Fatal(err)
			}
			if jobs[k], err = e.planJob(in, sched, flowMatch(ip), SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return jobs
	}
	run := func(jobs []*Job) time.Duration {
		start := time.Now()
		if err := e.enqueueAll(jobs); err != nil {
			t.Fatal(err)
		}
		if r, q := e.RunningCount(), e.QueueDepth(); r != len(jobs) || q != 0 {
			t.Fatalf("after admitting %d disjoint jobs: %d running, %d queued", len(jobs), r, q)
		}
		for _, job := range jobs {
			if err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	one := run(batch(1, false))
	run(batch(1, true))
	all := run(batch(flows, false))
	t.Logf("one job %v, %d jobs %v", one, flows, all)
	if all > 3*one {
		t.Fatalf("%d disjoint jobs took %v, one takes %v: they did not run together", flows, all, one)
	}
}

// TestQueuedChainRunsInOrderWithoutGoroutines queues 19 mutually
// conflicting jobs behind a slow one: they execute strictly in
// submission order, and while they wait they are a count on the job,
// not a parked goroutine each.
func TestQueuedChainRunsInOrderWithoutGoroutines(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	e := tb.ctrl.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	slow := SubmitOptions{Interval: 100 * time.Millisecond}

	// The one-job figure: the slow job alone, mid-run, then undone.
	alone := fig1Flips(t, e, 2, "10.0.0.2", slow)
	if err := e.enqueueAll(alone[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the slow job's first round", func() bool { return len(alone[0].timings()) > 0 })
	oneJob := steadyGoroutines()
	if err := e.enqueueAll(alone[1:]); err != nil {
		t.Fatal(err)
	}
	if err := alone[1].Wait(ctx); err != nil {
		t.Fatal(err)
	}

	jobs := fig1Flips(t, e, 20, "10.0.0.2", slow)
	if err := e.enqueueAll(jobs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the slow job's first round", func() bool { return len(jobs[0].timings()) > 0 })
	if q, r := e.QueueDepth(), e.RunningCount(); q != 19 || r != 1 {
		t.Fatalf("behind the slow job: %d queued, %d running, want 19 and 1", q, r)
	}
	if got := jobGoroutines(); got != 1 {
		t.Fatalf("%d job goroutines while 19 jobs are queued, want the running job's only", got)
	}
	if got := steadyGoroutines(); got > oneJob+3 {
		t.Fatalf("%d goroutines with 19 jobs queued, %d with the slow job alone", got, oneJob)
	}
	for _, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	assertInOrder(t, jobs)
	if res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64); !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("after 20 flips the flow runs %v, want the old path", res.Visited)
	}
}

// TestQueuedJobsFailOnShutdown cancels the engine while jobs wait on a
// conflicting predecessor: each fails with the cancellation having sent
// nothing, none is journaled terminal (a restart must recover them),
// and the engine is left empty.
func TestQueuedJobsFailOnShutdown(t *testing.T) {
	jl, err := journal.Open(t.TempDir() + "/journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	var mu sync.Mutex
	terminal := map[int]bool{}
	jl.SetOnAppend(func(rec journal.Record) {
		if rec.Kind == journal.KindTerminal {
			mu.Lock()
			terminal[rec.Job] = true
			mu.Unlock()
		}
	})
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Journal: jl}, nil)
	e := tb.ctrl.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}

	jobs := fig1Flips(t, e, 6, "10.0.0.2", SubmitOptions{Interval: time.Second})
	if err := e.enqueueAll(jobs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the slow job's first round", func() bool { return len(jobs[0].timings()) > 0 })
	if q := e.QueueDepth(); q != 5 {
		t.Fatalf("%d jobs queued, want 5", q)
	}
	tb.cancel()
	for i, job := range jobs {
		if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("job %d: %v, want context.Canceled", job.ID, err)
		}
		if job.State() != JobFailed {
			t.Fatalf("job %d: state %v", job.ID, job.State())
		}
		if i == 0 {
			continue // it ran; the rest never did
		}
		if total, _ := job.Messages(); total.Ctrl != 0 || len(job.Installs()) != 0 {
			t.Fatalf("queued job %d sent %d control messages, confirmed %d installs", job.ID, total.Ctrl, len(job.Installs()))
		}
		if job.TotalDuration() != 0 {
			t.Fatalf("queued job %d was begun", job.ID)
		}
	}
	if q, r := e.QueueDepth(), e.RunningCount(); q != 0 || r != 0 {
		t.Fatalf("after shutdown: %d queued, %d running", q, r)
	}
	waitFor(t, "job goroutines to exit", func() bool { return jobGoroutines() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(terminal) != 0 {
		t.Fatalf("cancelled jobs journaled terminal: %v", terminal)
	}

	// A submission after the shutdown gets the same verdict.
	late := fig1Flips(t, e, 1, "10.0.0.9", SubmitOptions{})
	if err := e.enqueueAll(late); err != nil {
		t.Fatal(err)
	}
	if err := late[0].Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job submitted after shutdown: %v, want context.Canceled", err)
	}
}

// TestRecoverQueuedJobsRelaunchInJournalOrder journals two jobs on one
// flow that never ran, restarts, and recovers them: both are requeued,
// the second waits — as a count, without a goroutine — until the first
// is done, and the flow ends where the second leaves it.
func TestRecoverQueuedJobsRelaunchInJournalOrder(t *testing.T) {
	path := t.TempDir() + "/journal.wal"
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Fig1()
	// A controller that is never started admits and journals, and
	// launches nothing.
	down, err := New(Config{Topology: g, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	if err := down.Engine().enqueueAll(fig1Flips(t, down.Engine(), 2, "10.0.0.2", SubmitOptions{})); err != nil {
		t.Fatal(err)
	}
	if q := down.Engine().QueueDepth(); q != 2 {
		t.Fatalf("%d jobs queued on the unstarted controller, want 2", q)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	if jl, err = journal.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Journal: jl}, slowSwitches(10*time.Millisecond))
	e := tb.ctrl.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 2 || stats.Recovered() != 2 {
		t.Fatalf("recovery stats %+v, want two requeued jobs", stats)
	}
	if q, r := e.QueueDepth(), e.RunningCount(); q != 1 || r != 1 {
		t.Fatalf("after Recover: %d queued, %d running, want 1 and 1", q, r)
	}
	jobs := e.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("%d jobs recovered", len(jobs))
	}
	waitFor(t, "the first recovered job to begin", func() bool { return jobs[0].State() == JobRunning })
	if got, second := jobGoroutines(), jobs[1].State(); got != 1 || second != JobQueued {
		t.Fatalf("%d job goroutines with the second recovered job %v, want 1 and queued", got, second)
	}
	for _, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatal(fmt.Errorf("recovered job %d: %w", job.ID, err))
		}
	}
	assertInOrder(t, jobs)
	if res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64); !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("after both recovered flips the flow runs %v, want the old path", res.Visited)
	}
}

// TestQueuedBeforeStartLaunchOnRun admits jobs on a controller that has
// not started: they wait, and Start releases them.
func TestQueuedBeforeStartLaunchOnRun(t *testing.T) {
	g := topo.Linear(4)
	ctrl, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	e := ctrl.Engine()
	path := topo.Path{1, 2, 3, 4}
	in := core.MustInstance(path, path, 0) // nothing to update: no switch needed
	jobs := make([]*Job, 3)
	for i := range jobs {
		if jobs[i], err = e.SubmitPlan(in, core.OneShot(in), flowMatch("10.0.0.2"), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if q, r := e.QueueDepth(), e.RunningCount(); q != 3 || r != 0 {
		t.Fatalf("before Start: %d queued, %d running, want 3 and 0", q, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := ctrl.Start(ctx, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if q, r := e.QueueDepth(), e.RunningCount(); q != 0 || r != 0 {
		t.Fatalf("after Start: %d queued, %d running", q, r)
	}
}
