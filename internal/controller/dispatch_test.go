package controller

import (
	"context"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// gridFlowA and gridFlowB are the two disjoint update problems used
// by the dispatcher tests on a 4x4 grid (rows 1-4/5-8/9-12/13-16):
// flow A rides rows 1-2, flow B rows 3-4.
func gridFlowA() (*core.Instance, *core.Instance) {
	fwd := core.MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 6, 7, 8, 4}, 0)
	back := core.MustInstance(topo.Path{1, 5, 6, 7, 8, 4}, topo.Path{1, 2, 3, 4}, 0)
	return fwd, back
}

func gridFlowB() *core.Instance {
	return core.MustInstance(topo.Path{9, 10, 11, 12}, topo.Path{9, 13, 14, 15, 16, 12}, 0)
}

// TestEngineDisjointJobsRunConcurrently proves both dispatcher
// properties at once:
//
//  1. Jobs with disjoint switch/match footprints overlap: a fast
//     disjoint job finishes while a slow job is still executing.
//  2. Overlapping jobs keep submission order: the second job on the
//     slow flow starts its rounds only after the first one's last
//     barrier.
func TestEngineDisjointJobsRunConcurrently(t *testing.T) {
	g := topo.Grid(4, 4)
	// Rows 1-2 (switches 1..8) answer slowly; rows 3-4 are instant.
	tb := newTestbedWithConfig(t, g, Config{Topology: g},
		func(n topo.NodeID) switchsim.Config {
			cfg := switchsim.Config{Node: n}
			if n <= 8 {
				cfg.CtrlLatency = netem.Fixed(75 * time.Millisecond)
			}
			return cfg
		})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	inA, inA2 := gridFlowA()
	inB := gridFlowB()
	schedule := func(in *core.Instance) *core.Schedule {
		s, err := core.Peacock(in)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	jobA, err := tb.ctrl.Engine().SubmitPlan(inA, core.PlanFromSchedule(schedule(inA)), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobA2, err := tb.ctrl.Engine().SubmitPlan(inA2, core.PlanFromSchedule(schedule(inA2)), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := tb.ctrl.Engine().SubmitPlan(inB, core.PlanFromSchedule(schedule(inB)), flowMatch("10.0.0.9"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The disjoint fast job must complete while the slow flow's first
	// job is still in flight (its switches add >=150ms per round).
	if err := jobB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := jobA.State(); st == JobDone || st == JobFailed {
		t.Fatalf("job A already %v when disjoint job B finished — no overlap", st)
	}

	if err := jobA2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if jobA.State() != JobDone {
		t.Fatalf("job A state %v after its successor finished", jobA.State())
	}

	// Per-flow FIFO: A2's first round starts only after A's last
	// barrier.
	tA, tA2 := jobA.Timings(), jobA2.Timings()
	if len(tA) == 0 || len(tA2) == 0 {
		t.Fatal("missing timings")
	}
	if tA2[0].Started.Before(tA[len(tA)-1].Finished) {
		t.Fatal("overlapping job A2 started before job A's last barrier")
	}
	// Submission order is preserved in the listing.
	jobs := tb.ctrl.Engine().Jobs()
	if len(jobs) != 3 || jobs[0].ID != jobA.ID || jobs[1].ID != jobA2.ID || jobs[2].ID != jobB.ID {
		t.Fatalf("jobs = %v", jobs)
	}
}

// TestEngineSerialWorkerPreservesCorrectness pins the workers=1
// configuration: everything still completes (the serial baseline the
// benchmark compares against).
func TestEngineSerialWorkerPreservesCorrectness(t *testing.T) {
	g := topo.Grid(4, 4)
	tb := newTestbedWithConfig(t, g, Config{Topology: g, EngineWorkers: 1}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	inA, _ := gridFlowA()
	inB := gridFlowB()
	sA, err := core.Peacock(inA)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := core.Peacock(inB)
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := tb.ctrl.Engine().SubmitPlan(inA, core.PlanFromSchedule(sA), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := tb.ctrl.Engine().SubmitPlan(inB, core.PlanFromSchedule(sB), flowMatch("10.0.0.9"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobA.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jobB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// One worker slot: the two executions never overlapped.
	tA, tB := jobA.Timings(), jobB.Timings()
	aEnd := tA[len(tA)-1].Finished
	bEnd := tB[len(tB)-1].Finished
	if tB[0].Started.Before(aEnd) && tA[0].Started.Before(bEnd) {
		t.Fatal("jobs overlapped despite EngineWorkers=1")
	}
}

// TestJobSubscribeReplaysAndTerminates pins the watch contract the SSE
// endpoint builds on: a late subscriber sees every round exactly once
// in order, then the terminal event, then the channel closes.
func TestJobSubscribeReplaysAndTerminates(t *testing.T) {
	tb := newTestbed(t, topo.Fig1(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	job, err := tb.ctrl.Engine().SubmitPlan(in, core.PlanFromSchedule(sched), flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	early := job.Subscribe()
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	late := job.Subscribe() // after completion: pure replay

	for name, ch := range map[string]<-chan JobEvent{"early": early, "late": late} {
		var rounds []int
		var terminal *JobEvent
		for ev := range ch {
			if ev.Round != nil {
				rounds = append(rounds, ev.Round.Round)
				continue
			}
			ev := ev
			terminal = &ev
		}
		if len(rounds) != sched.NumRounds() {
			t.Fatalf("%s: saw %d round events, want %d", name, len(rounds), sched.NumRounds())
		}
		for i, r := range rounds {
			if r != i {
				t.Fatalf("%s: round events out of order: %v", name, rounds)
			}
		}
		if terminal == nil || terminal.State != JobDone {
			t.Fatalf("%s: terminal event = %+v", name, terminal)
		}
	}
}
