package controller

import (
	"context"
	"encoding/hex"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// pr15Journal is a journal file written by the parent of the exec-plan
// unification (git's PR 15), whose admit records came out of its
// round-shaped builders: six jobs on the Fig. 1 reroute, one flow each.
//
//	1  wayup + cleanup, 10.0.0.2: layer 0 dispatched and confirmed
//	2  peacock, 10.0.0.3: admitted only
//	3  peacock, 10.0.0.4: layer 0 dispatched, two nodes confirmed
//	4  peacock, 10.0.0.5: terminal (done)
//	5  two-phase, 10.0.0.6: admitted only (not recoverable)
//	6  sparse peacock plan + cleanup, 10.0.0.7: admitted only
//
// Every round of these schedules is already sorted by switch id, so
// the current builders must produce the same node numbering and the
// recorded indices must mean the same installs.
const pr15Journal = "" +
	"5453554a01560101057761797570000001070102030405060c0801070803090a0b0c030a0000020704070000002e5453" +
	"55500105776179757007000b0700080009000a000b00030500000000000101050201060401060501060601060ff52d01" +
	"4e010207706561636f636b000001070102030405060c0801070803090a0b0c000a000003050028545355500107706561" +
	"636f636b0500070700080009000a000b00010500000000000305000000000053d3986f4e010307706561636f636b0000" +
	"01070102030405060c0801070803090a0b0c000a000004050028545355500107706561636f636b050007070008000900" +
	"0a000b00010500000000000305000000000044e46e5b4e010407706561636f636b000001070102030405060c08010708" +
	"03090a0b0c000a000005050028545355500107706561636f636b0500070700080009000a000b00010500000000000305" +
	"000000000046d3c1bc0f01050974776f2d7068617365000000ab32a9bb5d010607706561636f636b0000010701020304" +
	"05060c0801070803090a0b0c000a00000705040700000033545355500107706561636f636b05010b0700080009000a00" +
	"0b000102000003030200000202050004020500050205000602050076612026080501050000000000db784b0a03030100" +
	"e41c560a03030101931b669c030301020a123726030301037d1507b003030104e37192130805030500000000004ce75a" +
	"2303030300d62a348803030301a12d041e0404040100b034d1d6"

// TestAdmitSpecMatchesParentEncoding rebuilds jobs 1, 2 and 6 of the
// fixture with the current builders: their admit records — paths,
// props, cleanup indices and the encoded plan bytes — must equal what
// the parent journaled, so journals stay readable in both directions.
func TestAdmitSpecMatchesParentEncoding(t *testing.T) {
	data, err := hex.DecodeString(pr15Journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: topo.Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	wp := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	nowp := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	wayup, err := core.WayUp(wp)
	if err != nil {
		t.Fatal(err)
	}
	peacock, err := core.Peacock(nowp)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := core.PlanByName(nowp, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rec   int // index of the job's admit record in the fixture
		in    *core.Instance
		plan  *core.Plan
		nwDst string
		opts  SubmitOptions
	}{
		{0, wp, wayup, "10.0.0.2", SubmitOptions{Cleanup: true}},
		{1, nowp, peacock, "10.0.0.3", SubmitOptions{}},
		{5, nowp, sparse, "10.0.0.7", SubmitOptions{Cleanup: true}},
	} {
		job, err := c.engine.planJob(tc.in, tc.plan, flowMatch(tc.nwDst), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := admitSpec(job), recs[tc.rec].Admit; !reflect.DeepEqual(got, want) {
			t.Fatalf("admit record of fixture job %d:\n got %+v\nwant %+v", recs[tc.rec].Job, got, want)
		}
	}
}

// TestRecoverParentJournal replays a journal written by the parent
// commit: the new code must decode its admit records into runnable
// plans and take the same adopt / requeue / rollback decisions.
func TestRecoverParentJournal(t *testing.T) {
	data, err := hex.DecodeString(pr15Journal)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/journal.wal"
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Journal: jl}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The network the old controller left behind: every live flow on
	// the old path, job 1's confirmed layer 0 (the new-only switches)
	// in place, and nothing of job 3 — its journaled confirmations are
	// contradicted by the switches, which is what forces a rollback.
	for _, ip := range []string{"10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.7"} {
		if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch(ip), "h2"); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range []topo.Path{{7, 8, 3}, {9, 10, 11, 12}} {
		if err := tb.ctrl.InstallPath(ctx, seg, flowMatch("10.0.0.2"), ""); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := tb.ctrl.Engine().Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryStats{Replayed: 16, Terminal: 1, Requeued: 2, Adopted: 1, RolledBack: 1, Failed: 1}
	if stats != want {
		t.Fatalf("recovery stats = %+v, want %+v", stats, want)
	}

	type outcome struct {
		state   JobState
		adopted bool
		phase   string // failure-report phase, "" for none
		rounds  int
	}
	wantJobs := map[int]outcome{
		1: {state: JobDone, adopted: true, rounds: 4},
		2: {state: JobDone, rounds: 2},
		3: {state: JobFailed, phase: PhaseRolledBack, rounds: 2},
		4: {state: JobDone},
		5: {state: JobFailed, phase: PhaseAborted},
		6: {state: JobDone, rounds: 3},
	}
	jobs := tb.ctrl.Engine().Jobs()
	if len(jobs) != len(wantJobs) {
		t.Fatalf("%d jobs recovered, want %d", len(jobs), len(wantJobs))
	}
	for _, job := range jobs {
		_ = job.Wait(ctx) //nolint:errcheck // failed outcomes are asserted below
		got := outcome{state: job.State(), adopted: job.Adopted, rounds: job.NumRounds()}
		if f := job.Failure(); f != nil {
			got.phase = f.Phase
			if f.Phase == PhaseRolledBack && !f.RollbackVerified {
				t.Fatalf("job %d rolled back without verification", job.ID)
			}
		}
		if !job.Recovered || got != wantJobs[job.ID] {
			t.Fatalf("job %d: recovered=%v outcome %+v, want %+v (err %v)", job.ID, job.Recovered, got, wantJobs[job.ID], job.Err())
		}
	}

	for ip, wantPath := range map[string]topo.Path{
		"10.0.0.2": topo.Fig1NewPath, // adopted and finished
		"10.0.0.3": topo.Fig1NewPath, // requeued and run
		"10.0.0.4": topo.Fig1OldPath, // rolled back
		"10.0.0.7": topo.Fig1NewPath, // requeued sparse plan
	} {
		res := tb.fabric.Inject(1, nwDstOf(ip), 64)
		if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(wantPath) {
			t.Fatalf("flow %s: probe %+v, want delivery along %v", ip, res, wantPath)
		}
	}
	// Jobs 1 and 6 asked for cleanup: their stale rules are gone, the
	// other flows' old-path rules are not.
	for _, n := range []topo.NodeID{2, 4, 5, 6} {
		if got := tb.fabric.Switch(n).Table().Len(); got != 2 {
			t.Fatalf("switch %d holds %d rules, want 2 (flows 10.0.0.3 and 10.0.0.4 only)", n, got)
		}
	}
}

// TestAdoptable pins the adopt-or-rollback decision on a four-node
// plan (0 → 1 → 3, 0 → 2 → 3): recovered state is adopted only when it
// is an order ideal that covers every journaled confirm and holds
// nothing that neither the journal nor an agent report ordered.
func TestAdoptable(t *testing.T) {
	dag := &core.Plan{Nodes: []core.PlanNode{
		{Switch: 1}, {Switch: 2, Deps: []int{0}}, {Switch: 3, Deps: []int{0}}, {Switch: 4, Deps: []int{1, 2}},
	}}
	set := func(idx ...int) []bool {
		s := make([]bool, len(dag.Nodes))
		for _, i := range idx {
			s[i] = true
		}
		return s
	}
	for _, tc := range []struct {
		name                                        string
		applied, jconfirmed, jdispatched, agentDone []bool
		want                                        bool
	}{
		{"ideal covering the journaled confirms", set(0, 1), set(0), set(0, 1, 2), set(), true},
		{"hole under the frontier", set(1), set(), set(0, 1), set(), false},
		{"journaled confirm the switch denies", set(0), set(0, 1), set(0, 1), set(), false},
		{"applied state nothing ordered", set(0, 1), set(0), set(0), set(), false},
		{"applied state only an agent reported", set(0, 1), set(0), set(0), set(1), true},
	} {
		if got := Adoptable(dag, tc.applied, tc.jconfirmed, tc.jdispatched, tc.agentDone); got != tc.want {
			t.Errorf("%s: Adoptable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestJournalOneRecordPerWave: a journaled job writes its admit, one
// dispatched-batch record per release wave and its terminal — no record
// per confirm — and every confirm rides a later record than the one that
// dispatched its node: the next wave's, or the terminal. Decentralized,
// the one wave is the whole plan and every confirm rides the terminal.
func TestJournalOneRecordPerWave(t *testing.T) {
	for _, mode := range []ExecMode{ModeController, ModeDecentralized} {
		t.Run(mode.String(), func(t *testing.T) {
			jl, err := journal.Open(t.TempDir() + "/journal.wal")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { jl.Close() })
			var mu sync.Mutex
			var recs []journal.Record
			jl.SetOnAppend(func(r journal.Record) {
				// The engine reuses the lists' arrays once the append returns.
				r.Nodes, r.Confirmed = slices.Clone(r.Nodes), slices.Clone(r.Confirmed)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			})
			g := topo.Fig1()
			tb := newTestbedWithConfig(t, g, Config{Topology: g, Journal: jl}, nil)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := tb.ctrl.InstallPath(ctx, topo.Fig1OldPath, flowMatch("10.0.0.2"), "h2"); err != nil {
				t.Fatal(err)
			}
			in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
			sched, err := core.WayUp(in)
			if err != nil {
				t.Fatal(err)
			}
			job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			defer mu.Unlock()
			waves := job.NumRounds()
			if mode == ModeDecentralized {
				waves = 1
			}
			if len(recs) != waves+2 || recs[0].Kind != journal.KindAdmit || recs[len(recs)-1].Kind != journal.KindTerminal {
				t.Fatalf("journaled %d records %v, want admit, %d waves, terminal", len(recs), recs, waves)
			}
			dispatchedAt := make(map[int]int) // node -> index of its dispatched record
			confirmed := 0
			for k, r := range recs[1:] {
				if k < waves && r.Kind != journal.KindDispatchedBatch {
					t.Fatalf("record %d is %v, want a dispatched batch", k+1, r.Kind)
				}
				for _, i := range r.Confirmed {
					if at, ok := dispatchedAt[i]; !ok || at >= k+1 {
						t.Fatalf("node %d confirmed in record %d, dispatched in %v", i, k+1, at)
					}
					confirmed++
				}
				for _, i := range r.Nodes {
					dispatchedAt[i] = k + 1
				}
			}
			if n := job.NumInstalls(); len(dispatchedAt) != n || confirmed != n {
				t.Fatalf("%d nodes dispatched and %d confirms journaled, want %d each", len(dispatchedAt), confirmed, n)
			}
			if mode == ModeDecentralized && len(recs[2].Confirmed) != job.NumInstalls() {
				t.Fatalf("decentralized terminal carries %d confirms, want all %d", len(recs[2].Confirmed), job.NumInstalls())
			}
		})
	}
}
