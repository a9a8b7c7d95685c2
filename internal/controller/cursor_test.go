package controller

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// refProgress is the aggregation the engine did per confirmed install
// (planProgress.confirm) before rounds were derived from the install log,
// kept as the reference: it is fed
// the confirmed installs in confirmation order and renders the stream a
// subscriber saw, as drainEvents does, plus the job's round timings.
type refProgress struct {
	layers    []RoundTiming
	layerLeft []int
	nextRound int
	events    []string
	timings   []RoundTiming
}

func newRefProgress(layerOf []int) *refProgress {
	depth := 0
	for _, l := range layerOf {
		depth = max(depth, l+1)
	}
	p := &refProgress{layers: make([]RoundTiming, depth), layerLeft: make([]int, depth)}
	for i := range p.layers {
		p.layers[i] = RoundTiming{Round: i, Cleanup: true}
	}
	for _, l := range layerOf {
		p.layerLeft[l]++
	}
	return p
}

func (p *refProgress) confirm(install InstallTiming) {
	p.events = append(p.events, fmt.Sprintf("state=%v err=%v install=%+v", JobRunning, error(nil), install))
	lt := &p.layers[install.Layer]
	first := len(lt.Switches) == 0
	lt.Switches = append(lt.Switches, install.Node)
	lt.FlowMods += int(install.FlowMods)
	lt.Cleanup = lt.Cleanup && install.Cleanup
	if first || install.Started < lt.Started {
		lt.Started = install.Started
	}
	if first || install.Finished > lt.Finished {
		lt.Finished = install.Finished
	}
	p.layerLeft[install.Layer]--
	for p.nextRound < len(p.layers) && p.layerLeft[p.nextRound] == 0 {
		timing := p.layers[p.nextRound]
		sort.Slice(timing.Switches, func(a, b int) bool { return timing.Switches[a] < timing.Switches[b] })
		p.timings = append(p.timings, timing)
		p.events = append(p.events, fmt.Sprintf("state=%v err=%v round=%+v", JobRunning, error(nil), timing))
		p.nextRound++
	}
}

// checkDerived compares what a job derives from its install log — a
// late subscriber's replay and Timings — with the reference fed the same
// log. layerOf is the plan's node layering (the job may be stripped).
func checkDerived(t *testing.T, what string, job *Job, layerOf []int) {
	t.Helper()
	ref := newRefProgress(layerOf)
	for _, it := range job.Installs() {
		ref.confirm(it)
	}
	got, _ := drainEvents(job.Subscribe())
	if n := len(got); n > 0 && !strings.Contains(got[n-1], "install=") && !strings.Contains(got[n-1], "round=") {
		got = got[:n-1] // the terminal event
	}
	if !reflect.DeepEqual(got, ref.events) {
		t.Fatalf("%s: derived stream differs from the reference:\n got %q\nwant %q", what, got, ref.events)
	}
	if got := job.timings(); !reflect.DeepEqual(got, ref.timings) && len(got)+len(ref.timings) > 0 {
		t.Fatalf("%s: derived timings differ from the reference:\n got %+v\nwant %+v", what, got, ref.timings)
	}
}

// randomExecPlan draws a plan over distinct switches of the fake fleet:
// layered (random rounds) or sparse (every node depends on a random few
// earlier ones), with or without a cleanup layer behind it.
func randomExecPlan(rng *rand.Rand, ip string) execPlan {
	n := 1 + rng.Intn(24)
	sw := rng.Perm(allocSwitches)
	p := &core.Plan{Algorithm: "random", Sparse: rng.Intn(2) == 0}
	if p.Sparse {
		for i := 0; i < n; i++ {
			var deps []int
			for d := 0; d < i; d++ {
				if rng.Intn(4) == 0 {
					deps = append(deps, d)
				}
			}
			p.Nodes = append(p.Nodes, core.PlanNode{Switch: topo.NodeID(sw[i] + 1), Deps: deps})
		}
	} else {
		var rounds [][]topo.NodeID
		for i := 0; i < n; i++ {
			if i == 0 || rng.Intn(3) == 0 {
				rounds = append(rounds, nil)
			}
			rounds[len(rounds)-1] = append(rounds[len(rounds)-1], topo.NodeID(sw[i]+1))
		}
		p = core.Layered("random", 0, rounds)
	}
	var cleanupAt []topo.NodeID
	if rng.Intn(2) == 0 {
		for i := n; i < n+1+rng.Intn(4); i++ {
			cleanupAt = append(cleanupAt, topo.NodeID(sw[i]+1))
		}
	}
	rules := make([]nodeRule, n+len(cleanupAt))
	for i := range rules {
		rules[i] = nodeRule{kind: ruleModify, port: 1}
	}
	return newExecPlan(p, flowMatch(ip), rules, n, cleanupAt)
}

// TestDerivedRoundsEqualReference: the rounds a job derives from its
// install log — their place in the stream, switches, Started, Finished,
// Cleanup, FlowMods — are the ones the engine used to aggregate, over
// random plans and confirmation orders, on every path that writes the
// log: confirmations in a random legal order (and, as a switch's
// completion report may overtake its dependencies', in any order at
// all), followed live by one cursor and replayed by a late one; the
// controller-driven walk; an adopted job's pre-confirmed ideal; and
// decentralized completion reports.
func TestDerivedRoundsEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	span := func() (time.Time, time.Time) {
		start := epoch // a quarter of the installs start as the job does: offset 0
		if rng.Intn(4) != 0 {
			start = start.Add(time.Duration(rng.Intn(1e6)) * time.Microsecond)
		}
		return start, start.Add(time.Duration(rng.Intn(1e4)) * time.Microsecond)
	}
	for iter := 0; iter < 300; iter++ {
		plan := randomExecPlan(rng, "10.9.6.1")
		job := newJob(plan, SubmitOptions{}, nil)
		job.started = epoch
		pr := core.NewPlanRun(plan.dag)
		ready := pr.Reset(nil)
		if iter%3 == 0 { // any order: decentralized reports
			ready = rng.Perm(plan.len())
		}
		live, cur := []string(nil), job.Subscribe()
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			i := ready[k]
			ready = slices.Delete(ready, k, k+1)
			started, finished := span()
			job.confirmed(i, topo.NodeID(rng.Intn(3)), plan.flowMods(i), started, finished)
			if iter%3 != 0 {
				ready = pr.Complete(i, ready)
			}
			evs, closed := drainEvents(cur)
			if live = append(live, evs...); closed {
				t.Fatalf("iter %d: stream of a running job ended", iter)
			}
		}
		what := fmt.Sprintf("iter %d (%d nodes, sparse=%v, cleanup from %d)", iter, plan.len(), plan.sparse, plan.cleanupFrom)
		if late, _ := drainEvents(job.Subscribe()); !reflect.DeepEqual(live, late) || len(job.Installs()) != plan.len() {
			t.Fatalf("%s: a cursor following live saw\n%q\na late one\n%q", what, live, late)
		}
		checkDerived(t, what, job, plan.layers)
	}

	h := newAllocHarness(t)
	defer h.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for iter := 0; iter < 30; iter++ {
		plan := randomExecPlan(rng, "10.9.6.2")
		what := fmt.Sprintf("fleet iter %d (%d nodes, sparse=%v, cleanup from %d)", iter, plan.len(), plan.sparse, plan.cleanupFrom)
		run := func(job *Job, feed func()) {
			t.Helper()
			job.ID = 3*iter + 1 + int(job.Mode)
			h.e.begin(job)
			done := make(chan error, 1)
			go func() {
				_, err := h.e.execute(ctx, job)
				done <- err
			}()
			if feed != nil {
				feed()
			}
			if err := <-done; err != nil || len(job.Installs()) != plan.len() {
				t.Fatalf("%s, %v: %d installs of %d, %v", what, job.Mode, len(job.Installs()), plan.len(), err)
			}
			checkDerived(t, fmt.Sprintf("%s, %v, adopted=%v", what, job.Mode, job.Adopted), job, plan.layers)
		}

		run(newJob(plan, SubmitOptions{}, nil), nil)

		// Adopted: a random ideal (a prefix of a random legal order) was
		// already in effect and is confirmed synthetically.
		adopted := newJob(plan, SubmitOptions{}, nil)
		adopted.Adopted = true
		adopted.preConfirmed = make([]bool, plan.len())
		pr := core.NewPlanRun(plan.dag)
		ready := pr.Reset(nil)
		for k := rng.Intn(plan.len() + 1); k > 0; k-- {
			at := rng.Intn(len(ready))
			i := ready[at]
			adopted.preConfirmed[i] = true
			ready = pr.Complete(i, slices.Delete(ready, at, at+1))
		}
		run(adopted, nil)

		// Decentralized: one completion report per switch, in any order.
		dec := newJob(plan, SubmitOptions{Mode: ModeDecentralized}, nil)
		run(dec, func() {
			var reports chan<- *planwire.Report
			waitFor(t, "the job to listen for completion reports", func() bool {
				h.c.planMu.Lock()
				defer h.c.planMu.Unlock()
				reports = h.c.planReports[dec.ID]
				return reports != nil
			})
			for _, i := range rng.Perm(plan.len()) {
				start := time.Duration(rng.Intn(1e6)) * time.Microsecond
				reports <- &planwire.Report{Job: dec.ID, Switch: plan.sw(i), AcksSent: rng.Intn(3), Nodes: []planwire.NodeReport{{
					Index: i, Started: start, Finished: start + time.Duration(rng.Intn(1e4))*time.Microsecond,
				}}}
			}
		})
	}
}

// TestWatchHangUpLeavesNothing: a watcher that hangs up mid-job is
// forgotten at once. A hundred watches are opened on a job parked on a
// fake fleet and cancelled: every handler returns, the job holds no
// channel for any of them, and it still finishes and replays in full.
func TestWatchHangUpLeavesNothing(t *testing.T) {
	h := newFakeFleet(t, true)
	defer h.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := h.e.enqueue(newJob(fakePlan("10.9.5.1", 1, 6, 2), SubmitOptions{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.held(t, 6) // the first wave: the job runs, and waits

	var watching atomic.Int32
	rest := h.c.RESTHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		watching.Add(1)
		defer watching.Add(-1)
		rest.ServeHTTP(w, r)
	}))
	defer srv.Close()
	before := steadyGoroutines()
	for i := 0; i < 100; i++ {
		wctx, hangUp := context.WithCancel(ctx)
		req, _ := http.NewRequestWithContext(wctx, http.MethodGet, fmt.Sprintf("%s/v1/updates/%d/watch", srv.URL, job.ID), nil)
		resp, err := srv.Client().Do(req) // returns once the headers are flushed: the handler waits on the job
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("watch %d: %v %v", i, resp, err)
		}
		hangUp()
		resp.Body.Close()
	}
	waitFor(t, "the hung-up watch handlers to return", func() bool { return watching.Load() == 0 })
	srv.Client().CloseIdleConnections()
	waitFor(t, "the watchers' goroutines to go", func() bool { return steadyGoroutines() <= before })
	for rv, i := reflect.ValueOf(job).Elem(), 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if k := f.Kind(); (k == reflect.Slice || k == reflect.Map) && f.Len() > 0 && f.Type().Elem().Kind() == reflect.Chan {
			t.Fatalf("the job holds %d channels in %s after every watcher hung up", f.Len(), rv.Type().Field(i).Name)
		}
	}

	h.answer()
	h.held(t, 6) // the second wave
	h.answer()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	_, body := serveGET(t, h.c, fmt.Sprintf("/v1/updates/%d/watch", job.ID), nil)
	if installs, rounds := strings.Count(body, "event: install\n"), strings.Count(body, "event: round\n"); installs != 12 || rounds != 2 || !strings.HasSuffix(body, "event: done\ndata: {\"type\":\"done\",\"job\":1,\"total_us\":"+fmt.Sprint(job.TotalDuration().Microseconds())+"}\n\n") {
		t.Fatalf("replay after the hang-ups: %d installs, %d rounds:\n%s", installs, rounds, body)
	}
	checkDerived(t, "after the hang-ups", job, fakePlan("10.9.5.1", 1, 6, 2).layers)
}
