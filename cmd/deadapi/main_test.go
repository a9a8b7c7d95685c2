package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFixtureReport runs the guard on testdata/fixture, loaded once. Its
// dead-API part holds one identifier of each kind: used, unused, called
// from a test only, a method that only satisfies fmt.Stringer, a method
// that matches only an interface nothing uses (io.Closer), allowlisted,
// and a stale allowlist entry. Its other packages stand in for the
// tree's, each breaking the rules that guard it — among them a second
// install writer in another file of the controller and a NodeID-keyed
// map through an alias, and a third admission beside the two — beside
// what the rules allow: bench/ (and the Options.Seed fields only it
// sets), tests outside retired names, internal/core/multipolicy.go,
// internal/simclock, internal/wirefmt's varint reader and the write
// a.Recoverable = true. Every rule must have a finding here, so none
// goes untested.
func TestFixtureReport(t *testing.T) {
	report, err := check("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	hit := map[string]bool{}
	for _, f := range report {
		got = append(got, f.String())
		if f.rule != nil {
			hit[f.rule.name] = true
		}
	}
	want := []string{
		"internal/lib/lib.go:8: internal/lib.Unused: no reference outside tests",
		"internal/lib/lib.go:11: internal/lib.TestOnly: no reference outside tests",
		"internal/lib/lib.go:22: internal/lib.Kept.Close: no reference outside tests",
		"deadapi-allow.txt:3: internal/lib.Gone: stale, names no exported identifier under internal/",
		"internal/controller/controller.go:18: one-barrier-site: uses internal/openflow.BarrierRequest outside internal/controller/dispatch.go",
		"internal/controller/controller.go:11: one-install-writer: uses internal/ofconn.Conn.WriteBatch outside internal/controller/dispatch.go",
		"internal/controller/controller.go:15: one-install-writer: uses internal/ofconn.Conn.WriteBatch outside internal/controller/dispatch.go",
		"internal/controller/dispatch.go:23: no-writer-goroutine: go statement",
		"internal/core/plan.go:39: no-round-schedule: uses internal/core.Schedule",
		"internal/controller/dispatch_test.go:11: retired-plan-names: names Schedule",
		"internal/controller/dispatch_test.go:12: retired-plan-names: names ScheduleByName",
		"internal/core/core_test.go:6: retired-plan-names: names Schedule",
		"internal/core/plan.go:39: retired-plan-names: declares PlanScheduler",
		"internal/core/deprecated.go: deprecated-aliases: 4 declarations, want the 3 aliases",
		"internal/core/dense.go:8: dense-core: declares byNode of type map[topo.NodeID]int",
		"internal/core/dense.go:9: dense-core: declares byAlias of type map[core.nid]int",
		"internal/switchsim/switch.go:4: one-timer-heap: imports container/heap",
		"internal/switchsim/switch.go:22: no-private-queue: declares pushLocked",
		"main.go:24: inert-loop-shim: uses internal/switchsim.Config.Loops outside internal/switchsim/loops.go, internal/switchsim.Config.Loops",
		"internal/switchsim/switch.go:16: no-loops-knob: declares Loops",
		"internal/controller/job.go:8: one-trace: declares log of type []controller.JobEvent",
		"internal/controller/job.go:9: one-trace: declares watchers of type []chan controller.JobEvent",
		"internal/controller/job.go:13: one-encoded-trace: declares switchMessages",
		"internal/controller/rollback.go:12: undo-in-reconcile: uses internal/controller.downClosure outside internal/controller/recover.go",
		"internal/controller/rollback.go:11: one-state-query: uses internal/controller.Engine.querySwitchState outside internal/controller.Engine.reconcile",
		"internal/controller/recover.go:29: one-admission: uses internal/controller.Engine.admitLocked outside internal/controller.Engine.enqueueAll, internal/controller.Engine.admitJournal",
		"internal/controller/rollback.go:22: no-port-inference: declares shows",
		"internal/controller/rollback.go:16: no-push-wait: declares pushErr",
		"internal/controller/rollback.go:8: rollback-always: compares a *internal/controller.rollbackSpec with nil",
		"internal/controller/rollback.go:8: recoverable-always: uses internal/journal.Admit.Recoverable",
		"internal/journal/journal.go:39: one-fsync: uses os.File.Sync outside internal/journal.Journal.commit, internal/journal.Journal.Compact, internal/journal.dirSync",
		"internal/controller/rollback.go:19: one-record-per-wave: uses internal/journal.KindDispatched",
		"internal/journal/journal.go:43: no-replayed: declares Replayed",
		"internal/journal/decode.go:9: one-varint-reader: uses encoding/binary.Uvarint",
		"internal/journal/decode.go:8: no-private-cursor: declares uvarint",
		"internal/client/client.go:17: one-http-client: literal 2 of net/http.Client, want exactly 1",
		"internal/client/client.go:17: no-client-timeout: uses net/http.Client.Timeout",
		"internal/explore/explore.go:25: one-counterexample: declares PlanCounterexample",
		"internal/core/plan.go:5: one-sampler: imports math/rand",
		"internal/explore/explore.go:6: one-sampler: imports math/rand/v2",
		"internal/verify/verify.go:5: one-sampler: imports math/rand",
		"internal/explore/explore.go:16: explore-no-goroutine: go statement",
		"internal/explore/explore.go:14: explore-no-memo: declares seen of type map[int]bool",
		"internal/core/plan.go:27: one-search: declares Walker",
		"internal/core/plan.go:42: one-search: declares CheckStage",
		"internal/core/plan.go:29: one-ideal-enumerator: uses internal/core.Plan.VisitIdeals outside internal/core.Plan.IdealStates",
		"internal/explore/explore.go:16: one-ideal-enumerator: uses internal/core.Plan.VisitIdeals outside internal/core.Plan.IdealStates",
		"internal/verify/verify.go:15: seed-unread: uses internal/verify.Options.Seed",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, r := range rules {
		if !hit[r.name] {
			t.Errorf("rule %s has no finding in testdata/fixture: add its violation there", r.name)
		}
	}
}
