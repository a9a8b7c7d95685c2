package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// serveGET answers one GET from the controller's REST handler.
func serveGET(t *testing.T, c *Controller, path string, into any) (status int, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	c.RESTHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	body = rec.Body.String()
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v in %q", path, err, body)
		}
	}
	return rec.Code, body
}

// liveHeap is the heap in use once the garbage is gone.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainRingBounded serves three rings' worth of jobs: the engine
// knows the newest retainTerminal of them and nothing else, an evicted
// id answers 404 with the retention message, and the heap after three
// rings is the heap after one.
func TestRetainRingBounded(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()

	// Eight disjoint flows of 4 switches × 2 layers: each wave of jobs
	// runs eight abreast.
	plans := make([]execPlan, 8)
	for f := range plans {
		plans[f] = fakePlan(fmt.Sprintf("10.9.1.%d", f+1), topo.NodeID(1+4*f), 4, 2)
	}

	// A reader polls the list and the newest job's status throughout, as
	// REST clients do while jobs finish, are stripped and are evicted.
	stopReader, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			if jobs := h.e.Jobs(); len(jobs) > 0 {
				v1JobStatus(jobs[len(jobs)-1])
			}
			runtime.Gosched()
		}
	}()

	h.serve(t, retainTerminal, plans...)
	after1 := liveHeap()
	h.serve(t, 2*retainTerminal, plans...)
	close(stopReader)
	<-readerDone
	after3 := liveHeap()

	jobs := h.e.Jobs()
	if len(jobs) != retainTerminal {
		t.Fatalf("engine knows %d jobs with none unfinished, want the %d retained", len(jobs), retainTerminal)
	}
	for i, job := range jobs {
		if want := 2*retainTerminal + 1 + i; job.ID != want {
			t.Fatalf("Jobs()[%d] is job %d, want %d: the newest ids, in id order", i, job.ID, want)
		}
	}
	if retained, evicted := h.e.Retention(); retained != retainTerminal || evicted != 2*retainTerminal {
		t.Fatalf("retained %d evicted %d, want %d and %d", retained, evicted, retainTerminal, 2*retainTerminal)
	}
	var hz api.Healthz
	if code, body := serveGET(t, h.c, "/v1/healthz", &hz); code != http.StatusOK ||
		hz.JobsRetained != retainTerminal || hz.JobsEvicted != 2*retainTerminal {
		t.Fatalf("healthz %d: %s", code, body)
	}

	var newest api.JobStatus
	if code, body := serveGET(t, h.c, fmt.Sprintf("/v1/updates/%d", 3*retainTerminal), &newest); code != http.StatusOK ||
		newest.State != "done" || len(newest.Installs) != 8 {
		t.Fatalf("newest job: %d %s", code, body)
	}
	for _, tc := range []struct {
		id   int
		want string
	}{
		{1, fmt.Sprintf("job 1 finished; the controller keeps the last %d finished jobs", retainTerminal)},
		{2 * retainTerminal, "finished; the controller keeps"},
		{3*retainTerminal + 1, fmt.Sprintf("job %d unknown", 3*retainTerminal+1)},
	} {
		for _, path := range []string{"/v1/updates/%d", "/v1/updates/%d/watch"} {
			var e api.Error
			code, body := serveGET(t, h.c, fmt.Sprintf(path, tc.id), &e)
			if code != http.StatusNotFound || e.Code != api.CodeUnknownJob || !strings.Contains(e.Message, tc.want) {
				t.Fatalf("GET "+path+": %d %s, want 404 code %d %q", tc.id, code, body, api.CodeUnknownJob, tc.want)
			}
		}
	}

	// Flat: what two more rings of jobs left behind is noise, not growth.
	// One retained job of this shape is ~0.7 KB (the Job, its done
	// channel and a 128-byte trace), so an unbounded engine would hold
	// ~1.4 MB more.
	if grew := int64(after3) - int64(after1); grew > int64(after1)/10 {
		t.Fatalf("live heap %d B after one ring of jobs, %d B after three: grew %d B, want within 10%%", after1, after3, grew)
	}
	t.Logf("live heap: %d KB after %d jobs, %d KB after %d", after1>>10, retainTerminal, after3>>10, 3*retainTerminal)
}

// drainEvents reads everything a cursor can deliver without waiting,
// rendered; closed reports that the terminal event was among it.
func drainEvents(cur *Cursor) (evs []string, closed bool) {
	for {
		ev, more, ok := cur.poll()
		if !ok {
			return evs, more == nil
		}
		s := fmt.Sprintf("state=%v err=%v", ev.State, ev.Err)
		if ev.Install != nil {
			s += fmt.Sprintf(" install=%+v", *ev.Install)
		}
		if ev.Round != nil {
			s += fmt.Sprintf(" round=%+v", *ev.Round)
		}
		evs = append(evs, s)
	}
}

// TestStripKeepsTrace finishes a job that carries everything a job can
// carry — plan, footprint, rollback spec, adopted frontier — and checks
// that finishing drops all of that and none of what the API serves: the
// status, the install trace, the message counts and a subscriber's
// replay read after the strip as they read before it.
func TestStripKeepsTrace(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()

	spec := &rollbackSpec{
		in:    core.MustInstance(topo.Path{1, 2}, topo.Path{1, 9, 10, 2}, 0),
		match: flowMatch("10.9.0.2"),
	}
	job := newJob(fakePlan("10.9.0.2", 1, 8, 4), SubmitOptions{}, spec)
	job.ID = 7
	job.Adopted = true
	job.preConfirmed = make([]bool, job.plan.len())
	job.preConfirmed[0] = true
	h.e.begin(job)
	report, err := h.e.execute(context.Background(), job)
	if err != nil || report != nil {
		t.Fatalf("execute: %v %+v", err, report)
	}

	status := func() api.JobStatus {
		st := v1JobStatus(job)
		st.State, st.TotalMicros = "", 0 // what finishing is meant to change
		return st
	}
	beforeStatus, _ := json.Marshal(status())
	beforeInstalls := job.Installs()
	beforeTotal, beforePer := job.Messages()
	beforeEvents, closed := drainEvents(job.Subscribe())
	if closed || len(beforeEvents) != 32+4 {
		t.Fatalf("running job replayed %d events (closed=%v), want 32 installs + 4 rounds on an open stream", len(beforeEvents), closed)
	}

	h.e.finish(job, nil, nil)

	if job.plan != nil || job.nodes != nil || job.matches != nil || job.rollback != nil || job.preConfirmed != nil || job.run != nil {
		t.Fatalf("finished job still holds plan=%v nodes=%v matches=%v rollback=%v preConfirmed=%v",
			job.plan != nil, job.nodes != nil, job.matches != nil, job.rollback != nil, job.preConfirmed != nil)
	}
	if afterStatus, _ := json.Marshal(status()); string(afterStatus) != string(beforeStatus) {
		t.Fatalf("status changed by the strip:\n got %s\nwant %s", afterStatus, beforeStatus)
	}
	if st := v1JobStatus(job); st.State != "done" || st.Plan.Nodes != 32 || st.Plan.Edges != 24 || st.Plan.Depth != 4 || !st.Adopted {
		t.Fatalf("stripped status = %+v (plan %+v)", st, st.Plan)
	}
	if got := job.Installs(); !reflect.DeepEqual(got, beforeInstalls) || len(got) != 32 {
		t.Fatalf("install trace changed by the strip: %d entries, had %d", len(got), len(beforeInstalls))
	}
	if total, per := job.Messages(); total != beforeTotal || !reflect.DeepEqual(per, beforePer) {
		t.Fatalf("messages changed by the strip: %+v, had %+v", total, beforeTotal)
	}
	if job.NumInstalls() != 32 || job.shape.depth != 4 || job.shape.edges != 24 {
		t.Fatalf("shape = %d installs, %d rounds, %d edges", job.NumInstalls(), job.shape.depth, job.shape.edges)
	}
	if job.TotalDuration() <= 0 {
		t.Fatalf("TotalDuration = %v", job.TotalDuration())
	}
	afterEvents, closed := drainEvents(job.Subscribe())
	want := append(beforeEvents, "state=done err=<nil>")
	if !closed || !reflect.DeepEqual(afterEvents, want) {
		t.Fatalf("late subscriber replay (closed=%v):\n got %q\nwant %q", closed, afterEvents, want)
	}
}

// TestStripLeavesParkedInstallsTheirPlan: a job cut off by shutdown is
// not stripped. Its first wave is written and parked on held barrier
// replies when shutdown ends its walk; the job finishes cancelled and
// keeps its plan — it is not terminal to the journal either, and the
// restarted controller runs it again — and the walk leaves no barrier
// sink behind.
func TestStripLeavesParkedInstallsTheirPlan(t *testing.T) {
	h := newFakeFleet(t, true)
	defer h.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ectx, shutdown := context.WithCancel(context.Background())
	h.e.mu.Lock()
	h.e.ctx = ectx
	h.e.mu.Unlock()
	job, err := h.e.enqueue(newJob(fakePlan("10.9.2.2", 1, 6, 2), SubmitOptions{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.held(t, 6) // the first wave: the job runs, and waits
	shutdown()
	if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job cut off by shutdown ended %v, want context.Canceled", err)
	}
	if job.plan == nil || len(job.plan.rules) != 12 {
		t.Fatal("a job cut off by shutdown was stripped: the restarted controller runs it again")
	}
	if n := registeredSinks(h.c); n != 0 {
		t.Fatalf("%d barrier sinks still registered after the walk was cut off", n)
	}
	if retained, _ := h.e.Retention(); retained != 1 {
		t.Fatalf("retained %d finished jobs, want 1", retained)
	}
}

// TestRecoverRetainsNewestStubs replays a journal of retainTerminal + 50
// finished jobs with three unfinished ones scattered among them: the
// restart keeps the newest retainTerminal stubs and every unfinished
// job, however old.
func TestRecoverRetainsNewestStubs(t *testing.T) {
	path := t.TempDir() + "/journal.wal"
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Fig1()
	planner, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	wayup, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	live, err := planner.engine.planJob(in, wayup, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const total = retainTerminal + 50 + 3
	unfinished := map[int]bool{5: true, retainTerminal / 2: true, total - 1: true}
	for id := 1; id <= total; id++ {
		rec := journal.Record{Kind: journal.KindAdmit, Job: id, Admit: &journal.Admit{Algorithm: "wayup"}}
		if unfinished[id] {
			rec.Admit = admitSpec(live)
		}
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
		if !unfinished[id] {
			if err := jl.Append(journal.Record{Kind: journal.KindTerminal, Job: id, Done: id%2 == 0, Error: "boom"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if jl, err = journal.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })

	// Not started: the requeued jobs stay queued, so the test reads what
	// Recover decided, not what a fleet that is not there made of it.
	c, err := New(Config{Topology: g, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.engine.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Terminal != retainTerminal+50 || stats.Requeued != 3 || stats.Failed != 0 {
		t.Fatalf("recovery stats %+v, want %d terminal and 3 requeued", stats, retainTerminal+50)
	}
	if retained, evicted := c.engine.Retention(); retained != retainTerminal || evicted != 50 {
		t.Fatalf("retained %d evicted %d, want %d and 50", retained, evicted, retainTerminal)
	}
	jobs := c.engine.Jobs()
	if len(jobs) != retainTerminal+3 {
		t.Fatalf("engine knows %d jobs, want %d stubs + 3 unfinished", len(jobs), retainTerminal)
	}
	stubs, oldestStub := 0, 0
	for i, job := range jobs {
		if i > 0 && jobs[i-1].ID >= job.ID {
			t.Fatalf("Jobs() out of id order at %d: %d then %d", i, jobs[i-1].ID, job.ID)
		}
		switch state := job.State(); {
		case unfinished[job.ID]:
			if state != JobQueued || job.plan == nil || !job.Recovered {
				t.Fatalf("unfinished job %d came back %v (plan %v)", job.ID, state, job.plan != nil)
			}
			delete(unfinished, job.ID)
		case state != JobDone && state != JobFailed, job.plan != nil:
			t.Fatalf("stub %d is %v (plan %v)", job.ID, state, job.plan != nil)
		default:
			if stubs++; oldestStub == 0 {
				oldestStub = job.ID
			}
		}
	}
	// 51 ids precede the oldest stub kept: the 50 evicted ones and
	// unfinished job 5.
	if len(unfinished) != 0 || stubs != retainTerminal || oldestStub != 52 {
		t.Fatalf("kept %d stubs from id %d on, missing unfinished %v; want %d from 52 on", stubs, oldestStub, unfinished, retainTerminal)
	}
	var e api.Error
	if code, _ := serveGET(t, c, "/v1/updates/1", &e); code != http.StatusNotFound || !strings.Contains(e.Message, "finished; the controller keeps") {
		t.Fatalf("evicted stub answers %d %+v", code, e)
	}
}

// TestWatchOutlivesEviction: a watch stream takes its *Job before it
// subscribes, and the engine may evict the job in between. The stream
// holds the job, so it still replays the trace and ends with the
// terminal event, while the id itself already answers 404.
func TestWatchOutlivesEviction(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()
	held := h.serve(t, 1, fakePlan("10.9.3.1", 1, 2, 1)) // what jobFromPath handed the stream
	h.serve(t, retainTerminal, fakePlan("10.9.3.2", 9, 2, 1))
	var e api.Error
	if code, _ := serveGET(t, h.c, fmt.Sprintf("/v1/updates/%d/watch", held.ID), &e); code != http.StatusNotFound || e.Code != api.CodeUnknownJob {
		t.Fatalf("new watch on the evicted job: %d %+v, want 404", code, e)
	}
	evs, closed := drainEvents(held.Subscribe())
	if !closed || len(evs) != 2+1+1 || evs[len(evs)-1] != "state=done err=<nil>" {
		t.Fatalf("held job's stream (closed=%v): %q, want 2 installs, 1 round, done", closed, evs)
	}
}

// flushCounter is a streaming response writer that counts its flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestWatchFlushesPerBurst: the watch stream flushes when nothing more
// is queued, not per event — a finished job's whole replay (headers,
// installs, rounds, terminal event) is one write.
func TestWatchFlushesPerBurst(t *testing.T) {
	h := newAllocHarness(t)
	defer h.stop()
	job, err := h.e.enqueue(newJob(fakePlan("10.9.4.1", 1, 5, 1), SubmitOptions{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	h.c.RESTHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/updates/%d/watch", job.ID), nil))
	body := w.Body.String()
	if n := strings.Count(body, "\ndata: "); n != 5+1+1 || strings.LastIndex(body, "event: done\n") < strings.LastIndex(body, "event: round\n") {
		t.Fatalf("replay of a 5-install job carries %d events, want 5 installs, 1 round, done last:\n%s", n, body)
	}
	if w.flushes != 1 {
		t.Fatalf("replay took %d flushes, want 1:\n%s", w.flushes, body)
	}
}

// retainedJobBytes bounds what one retained 32-install job holds: its
// trace, the Job and its done channel. The measured figure is about
// 1,040 B for a controller-driven job (15 % above it, rounded up).
const retainedJobBytes = 1200

// TestRetainedBytesPerInstall fills the retained ring with 32-install
// jobs, each over 32 switches, on each path that writes a job's trace:
// controller-driven jobs (a counted install per node), jobs that rolled
// back half their installs (an undo tally record each) and
// decentralized jobs (a completion report tally record per switch).
// What a finished job holds stays under retainedJobBytes, and a
// controller-driven job's trace under 16 bytes per install. Reads
// MemStats: run it unloaded.
func TestRetainedBytesPerInstall(t *testing.T) {
	plans := []execPlan{fakePlan("10.9.7.1", 1, 32, 1), fakePlan("10.9.7.2", 33, 32, 1)}
	perJob := func(t *testing.T, h *allocHarness, run func(n int)) {
		t.Helper()
		const warm = 64 // pools and the job table grown, the ring part full
		run(warm)
		before := liveHeap()
		run(retainTerminal)
		after := liveHeap()
		if retained, _ := h.e.Retention(); retained != retainTerminal {
			t.Fatalf("retained %d jobs, want %d", retained, retainTerminal)
		}
		per := (int64(after) - int64(before)) / (retainTerminal - warm)
		t.Logf("%d B per retained 32-install job", per)
		if per > retainedJobBytes {
			t.Fatalf("a retained 32-install job holds %d B, want <= %d", per, retainedJobBytes)
		}
	}

	t.Run("controller", func(t *testing.T) {
		h := newAllocHarness(t)
		defer h.stop()
		perJob(t, h, func(n int) { h.serve(t, n, plans...) })
		jobs := h.e.Jobs()
		job := jobs[len(jobs)-1]
		job.mu.Lock()
		size, capacity := len(job.trace), cap(job.trace)
		job.mu.Unlock()
		t.Logf("trace: %d B of %d for %d installs", size, capacity, job.NumInstalls())
		if capacity > 16*job.NumInstalls() {
			t.Fatalf("a %d-install job's trace holds %d B (%d used), want <= 16 per install", job.NumInstalls(), capacity, size)
		}
	})

	t.Run("rolled-back", func(t *testing.T) {
		h := newAllocHarness(t)
		defer h.stop()
		spec := &rollbackSpec{
			in:    core.MustInstance(topo.Path{1, 2}, topo.Path{1, 9, 10, 2}, 0),
			match: flowMatch("10.9.7.1"),
		}
		// One cause and one report for every job: the arm measures what
		// the trace holds, not the report's lists.
		cause := errors.New("injected install failure")
		report := &FailureReport{Phase: PhaseRolledBack, TriggeringFault: cause.Error(), RollbackVerified: true}
		id := 0
		perJob(t, h, func(n int) {
			for range n {
				id++
				job := newJob(plans[0], SubmitOptions{}, spec)
				job.ID = id
				h.e.mu.Lock()
				h.e.jobs[id] = job
				h.e.mu.Unlock()
				h.e.begin(job)
				installed := make([]bool, job.plan.len())
				for i := range len(installed) / 2 {
					now := h.c.clock.Now()
					job.confirmed(i, 0, job.plan.flowMods(i), now, now.Add(4*time.Millisecond))
					installed[i] = true
				}
				if undone, _, err := h.e.runRollback(context.Background(), job, spec, installed); err != nil || len(undone) != len(installed)/2 {
					t.Fatalf("job %d: rolled back %d installs: %v", id, len(undone), err)
				}
				h.e.finish(job, cause, report)
			}
		})
	})

	t.Run("decentralized", func(t *testing.T) {
		h := newAllocHarness(t)
		defer h.stop()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		plan := fakePlan("10.9.7.3", 1, 16, 2) // each switch acks its second install's release
		perJob(t, h, func(n int) {
			for range n {
				job, err := h.e.enqueue(newJob(plan, SubmitOptions{Mode: ModeDecentralized}, nil))
				if err != nil {
					t.Fatal(err)
				}
				var reports chan<- *planwire.Report
				waitFor(t, "the job to listen for completion reports", func() bool {
					h.c.planMu.Lock()
					defer h.c.planMu.Unlock()
					reports = h.c.planReports[job.ID]
					return reports != nil
				})
				for sw := range 16 {
					r := &planwire.Report{Job: job.ID, Switch: plan.sw(sw), AcksSent: 1}
					for i := sw; i < plan.len(); i += 16 {
						start := time.Duration(plan.layers[i]) * 4 * time.Millisecond
						r.Nodes = append(r.Nodes, planwire.NodeReport{Index: i, Started: start, Finished: start + 4*time.Millisecond})
					}
					reports <- r
				}
				if err := job.Wait(ctx); err != nil {
					t.Fatalf("job %d: %v", job.ID, err)
				}
			}
		})
	})
}
