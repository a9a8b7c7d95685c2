package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// dumpExecPlan renders an execution DAG one node per line, in node
// order: index, switch, deps, layer, cleanup flag and the command, match
// and actions of the FlowMod the node's rule puts on the wire.
func dumpExecPlan(ep *execPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s depth=%d width=%d critical=%d sparse=%v\n", ep.dag.Algorithm, ep.depth, ep.width, ep.critical, ep.dag.Sparse)
	for i, nd := range ep.dag.Nodes {
		fmt.Fprintf(&b, "%d: s%d deps=%v layer=%d", i, nd.Switch, nd.Deps, ep.layers[i])
		if ep.isCleanup(i) {
			b.WriteString(" cleanup")
		}
		if r := ep.rules[i]; r.kind != ruleBarrier {
			wire, err := openflow.Encode(new(wireMod).build(r, ep.match))
			if err != nil {
				panic(err)
			}
			m, err := openflow.Decode(wire)
			if err != nil {
				panic(err)
			}
			fm := m.(*openflow.FlowMod)
			fmt.Fprintf(&b, " | %v %v", fm.Command, net.IP(fm.Match.NWDstIP()))
			if fm.Match.Wildcards&openflow.WildcardDLVLAN == 0 {
				fmt.Fprintf(&b, " vlan=%d", fm.Match.DLVLAN)
			}
			if fm.Priority != 0 {
				fmt.Fprintf(&b, " prio=%d", fm.Priority)
			}
			for _, a := range fm.Actions {
				switch a := a.(type) {
				case openflow.ActionOutput:
					fmt.Fprintf(&b, " out:%d", a.Port)
				case openflow.ActionSetVLAN:
					fmt.Fprintf(&b, " setvlan:%d", a.VLAN)
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fig1Cleanup is the cleanup suffix of every single-flow Fig. 1 job:
// the old-only switches in old-path order, each deleting the flow's
// rule once every sink of the update (the given deps) confirmed.
func fig1Cleanup(first int, sinks string, layer int) string {
	var b strings.Builder
	for k, sw := range []int{2, 4, 5, 6} {
		fmt.Fprintf(&b, "%d: s%d deps=[%s] layer=%d cleanup | DELETE 10.0.0.2\n", first+k, sw, sinks, layer)
	}
	return b.String()
}

// TestExecPlanFromEverySource pins what the single materializer builds
// for every way an update enters the engine, on the Fig. 1 instance:
// node switches, deps, layers, per-node FlowMods and the cleanup
// suffix, with and without SubmitOptions.Cleanup — and that each job
// rebuilt from its own admit record is the same plan.
func TestExecPlanFromEverySource(t *testing.T) {
	c, err := New(Config{Topology: topo.Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	e := c.engine
	wp := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	nowp := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	match := flowMatch("10.0.0.2")

	wayup, err := core.WayUp(wp)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := core.PlanByName(nowp, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		recoverable bool
		build       func(SubmitOptions) (*Job, error)
		shape       string // header without cleanup
		shapeClean  string // header with cleanup
		nodes       string
		cleanup     string
	}{
		{
			name:        "schedule",
			recoverable: true,
			build: func(o SubmitOptions) (*Job, error) {
				return e.planJob(wp, wayup, match, o)
			},
			shape:      "wayup depth=3 width=5 critical=2 sparse=false\n",
			shapeClean: "wayup depth=4 width=5 critical=3 sparse=false\n",
			nodes: `0: s7 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
1: s8 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:1
2: s9 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
3: s10 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
4: s11 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
5: s3 deps=[0 1 2 3 4] layer=1 | MODIFY 10.0.0.2 prio=100 out:4
6: s1 deps=[5] layer=2 | MODIFY 10.0.0.2 prio=100 out:2
`,
			cleanup: fig1Cleanup(7, "6", 3),
		},
		{
			// One-shot's single round is not sorted by switch id: node
			// order follows the scheduler, not ascending ids.
			name:        "schedule-unsorted-round",
			recoverable: true,
			build: func(o SubmitOptions) (*Job, error) {
				return e.planJob(wp, core.OneShot(wp), match, o)
			},
			shape:      "oneshot depth=1 width=7 critical=0 sparse=false\n",
			shapeClean: "oneshot depth=2 width=7 critical=1 sparse=false\n",
			nodes: `0: s1 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
1: s7 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
2: s8 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:1
3: s3 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:4
4: s9 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
5: s10 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
6: s11 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
`,
			cleanup: fig1Cleanup(7, "0 1 2 3 4 5 6", 1),
		},
		{
			name:        "sparse-plan",
			recoverable: true,
			build: func(o SubmitOptions) (*Job, error) {
				return e.planJob(nowp, sparse, match, o)
			},
			shape:      "peacock depth=2 width=5 critical=1 sparse=true\n",
			shapeClean: "peacock depth=3 width=5 critical=2 sparse=true\n",
			nodes: `0: s7 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
1: s8 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:1
2: s9 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
3: s10 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
4: s11 deps=[] layer=0 | MODIFY 10.0.0.2 prio=100 out:2
5: s1 deps=[0 1] layer=1 | MODIFY 10.0.0.2 prio=100 out:2
6: s3 deps=[2 3 4] layer=1 | MODIFY 10.0.0.2 prio=100 out:4
`,
			cleanup: fig1Cleanup(7, "5 6", 2),
		},
		{
			name:        "two-phase",
			recoverable: true,
			build: func(o SubmitOptions) (*Job, error) {
				return e.twoPhaseJob(wp, match, o)
			},
			shape:      "two-phase depth=2 width=6 critical=1 sparse=false\n",
			shapeClean: "two-phase depth=3 width=6 critical=2 sparse=false\n",
			nodes: `0: s7 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:2
1: s8 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:1
2: s3 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:4
3: s9 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:2
4: s10 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:2
5: s11 deps=[] layer=0 | ADD 10.0.0.2 vlan=2016 prio=110 out:2
6: s1 deps=[0 1 2 3 4 5] layer=1 | MODIFY 10.0.0.2 prio=100 setvlan:2016 out:2
`,
			cleanup: fig1Cleanup(7, "6", 2),
		},
	}
	for _, tc := range cases {
		for _, cleanup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cleanup=%v", tc.name, cleanup), func(t *testing.T) {
				job, err := tc.build(SubmitOptions{Cleanup: cleanup, Interval: 3 * time.Millisecond, Mode: ModeDecentralized})
				if err != nil {
					t.Fatal(err)
				}
				want := tc.shape + tc.nodes
				if cleanup {
					want = tc.shapeClean + tc.nodes + tc.cleanup
				}
				if got := dumpExecPlan(job.plan); got != want {
					t.Fatalf("exec plan:\n%s\nwant:\n%s", got, want)
				}
				if (job.rollback != nil) != tc.recoverable {
					t.Fatalf("rollback spec = %v, want recoverable=%v", job.rollback, tc.recoverable)
				}
				if !tc.recoverable {
					return
				}
				// Recovered from the journal: the admit record alone
				// rebuilds the same plan, options and rollback spec.
				job.ID = 41
				re, err := e.rebuildJob(job.ID, admitSpec(job))
				if err != nil {
					t.Fatal(err)
				}
				if got := dumpExecPlan(re.plan); got != want {
					t.Fatalf("rebuilt exec plan:\n%s\nwant:\n%s", got, want)
				}
				if re.ID != job.ID || !re.Recovered || re.Algorithm != job.Algorithm || re.Interval != job.Interval || re.Mode != job.Mode {
					t.Fatalf("rebuilt job = %+v, want the identity of %+v", re, job)
				}
				if r, o := re.rollback, job.rollback; r.props != o.props || r.match != o.match || r.perPacket != o.perPacket ||
					!r.in.Old.Equal(o.in.Old) || !r.in.New.Equal(o.in.New) || r.in.Waypoint != o.in.Waypoint {
					t.Fatalf("rebuilt rollback spec = %+v, want %+v", r, o)
				}
			})
		}
	}
}

// TestAdmitAppendFailureFailsJob kills the journal before a submit: the
// admit record cannot be written, so the job must end failed on the
// write-ahead error without ever being launched — a job the journal
// never admitted may not leave dispatched deltas in it later.
func TestAdmitAppendFailureFailsJob(t *testing.T) {
	jl, err := journal.Open(t.TempDir() + "/journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, Journal: jl}, nil)
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}

	jl.Crash()
	job, err := tb.ctrl.Engine().SubmitPlan(in, sched, flowMatch("10.0.0.2"), SubmitOptions{})
	if err != nil {
		t.Fatalf("SubmitPlan: %v (the job fails, the submit does not)", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, errJournalWriteAhead) {
		t.Fatalf("job error = %v, want errJournalWriteAhead", err)
	}
	if job.State() != JobFailed {
		t.Fatalf("job state = %v, want failed", job.State())
	}
	job.mu.Lock()
	started := job.started
	job.mu.Unlock()
	if !started.IsZero() {
		t.Fatal("job was launched although its admit record never reached the journal")
	}
	for _, n := range g.Nodes() {
		if applied := tb.fabric.Switch(n).FlowModsApplied(); applied != 0 {
			t.Fatalf("switch %d applied %d FlowMods", n, applied)
		}
	}
	if q, r := tb.ctrl.Engine().QueueDepth(), tb.ctrl.Engine().RunningCount(); q != 0 || r != 0 {
		t.Fatalf("engine counters after the failed admit: queued %d, running %d", q, r)
	}
}

// TestConflictsWithMatchesMapReference: on random footprints — plans
// over a few switches programming a flow's match and maybe its tagged
// form, most pairs disjoint, many sharing exactly one switch or one
// match, repeats inside a job — conflictsWith (a merge of the sorted
// switches, a scan of the at most two matches) agrees with the set
// intersection of map-based footprints, in both directions.
func TestConflictsWithMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	matches := []openflow.Match{
		flowMatch("10.0.0.1"), flowMatch("10.0.0.2"), flowMatch("10.0.1.1"),
		vlanMatch(net.ParseIP("10.0.0.1"), 7), vlanMatch(net.ParseIP("10.0.0.1"), 8),
		{Wildcards: openflow.WildcardAll}, {InPort: 3}, {DLSrc: [6]byte{0, 0, 0, 0, 0, 1}}, {DLDst: [6]byte{1}}, {TPDst: 80}, {TPSrc: 80},
	}
	// A plan programs its one flow's match, and a node that prepares or
	// deletes a tagged rule programs the flow's tagged form besides.
	tagged := func(m openflow.Match) openflow.Match {
		m.Wildcards &^= openflow.WildcardDLVLAN
		m.DLVLAN = TwoPhaseTag
		return m
	}
	kinds := []ruleKind{ruleModify, ruleModify, ruleDelete, ruleCommit, rulePrepare, ruleDeleteTagged}
	randomJob := func() (*Job, map[topo.NodeID]bool, map[openflow.Match]bool) {
		p := &core.Plan{Algorithm: "footprint"}
		var rules []nodeRule
		nodes, ms := map[topo.NodeID]bool{}, map[openflow.Match]bool{}
		m := matches[rng.Intn(len(matches))]
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			sw := topo.NodeID(1 + rng.Intn(24))
			p.Nodes = append(p.Nodes, core.PlanNode{Switch: sw})
			nodes[sw] = true
			k := kinds[rng.Intn(len(kinds))]
			rules = append(rules, nodeRule{kind: k, port: 1})
			if k == rulePrepare || k == ruleDeleteTagged {
				ms[tagged(m)] = true
			} else {
				ms[m] = true
			}
		}
		return newJob(newExecPlan(p, m, rules, len(p.Nodes), nil), SubmitOptions{}, nil), nodes, ms
	}
	conflicts, total := 0, 2000
	for trial := 0; trial < total; trial++ {
		a, an, am := randomJob()
		b, bn, bm := randomJob()
		want := false
		for n := range an {
			want = want || bn[n]
		}
		for m := range am {
			want = want || bm[m]
		}
		if got, rev := a.conflictsWith(b), b.conflictsWith(a); got != want || rev != want {
			t.Fatalf("trial %d: conflictsWith = %v / %v, want %v\n a: %v %v\n b: %v %v", trial, got, rev, want, a.nodes, a.matches, b.nodes, b.matches)
		}
		if len(a.nodes) != len(an) || len(a.matches) != len(am) {
			t.Fatalf("trial %d: footprint %v %v keeps repeats of %v %v", trial, a.nodes, a.matches, an, am)
		}
		if want {
			conflicts++
		}
	}
	if conflicts < total/10 || conflicts > 9*total/10 {
		t.Fatalf("%d of %d random pairs conflict: the draw exercises one side only", conflicts, total)
	}
}
