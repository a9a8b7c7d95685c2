package controller

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"tsu/internal/topo"
)

var updateRESTGolden = flag.Bool("update-rest-golden", false, "rewrite testdata/jobstatus.golden from the current tree")

// goldenJob is a finished job built by hand, every field fixed: what
// the status and watch handlers render of it depends on the rendering
// code alone. failed selects the other terminal shape (error, failure
// report, no messages).
func goldenJob(id int, failed bool) *Job {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	off := func(us int) time.Duration { return time.Duration(us) * time.Microsecond }
	job := &Job{
		ID:        id,
		Algorithm: "peacock",
		Mode:      ModeDecentralized,
		shape:     dagShape{installs: 5, edges: 4, depth: 3, width: 2, critical: 2, sparse: true, perLayer: []int{2, 2, 1}},
		state:     JobDone,
		started:   at(0),
		finished:  at(9876),
		done:      make(chan struct{}),
	}
	installs := []InstallTiming{
		{Node: 7, Layer: 0, FlowMods: 1, Started: off(10), Finished: off(4310)},
		{Node: 8, Layer: 0, FlowMods: 1, Started: off(12), Finished: off(4350)},
		{Node: 1, Layer: 1, ReleasedBy: 8, FlowMods: 1, Started: off(4400), Finished: off(8700)},
		{Node: 3, Layer: 1, ReleasedBy: 7, FlowMods: 2, Started: off(4410), Finished: off(8800)},
		{Node: 2, Layer: 2, ReleasedBy: 3, FlowMods: 1, Cleanup: true, Started: off(8810), Finished: off(9870)},
	}
	if failed {
		installs = installs[:3]
	}
	for i := range installs {
		job.logInstallLocked(&installs[i], false)
	}
	if failed {
		job.Mode = ModeController
		job.state = JobFailed
		job.err = errors.New(`install at 3 (layer 1): barrier reply: <timeout> & "quotes"`)
		job.failure = &FailureReport{
			Phase:            PhaseRolledBack,
			TriggeringFault:  job.err.Error(),
			Installed:        []topo.NodeID{7, 8, 1},
			RolledBack:       []topo.NodeID{1, 8, 7},
			RollbackVerified: true,
			Stuck:            []StuckNode{{Switch: 2, WaitingOn: []topo.NodeID{3}}},
		}
	} else {
		for _, m := range []struct {
			sw         topo.NodeID
			ctrl, peer int
		}{{1, 2, 0}, {2, 2, 0}, {3, 3, 2}, {7, 2, 1}, {8, 2, 1}} {
			job.tally(m.sw, MessageStats{Ctrl: m.ctrl, Peer: m.peer})
		}
	}
	close(job.done)
	return job
}

// TestJobStatusGolden pins the bytes of a finished job's
// GET /v1/updates/{id} body and of its watch replay, for a done and a
// failed job (testdata/jobstatus.golden, written by the tree before the
// status render was presized and the watch stream got its one buffer).
func TestJobStatusGolden(t *testing.T) {
	c, err := New(Config{Topology: topo.Grid(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for id, failed := range []bool{false, true} {
		job := goldenJob(id+1, failed)
		c.engine.mu.Lock()
		c.engine.jobs[job.ID] = job
		c.engine.mu.Unlock()
		for _, path := range []string{fmt.Sprintf("/v1/updates/%d", job.ID), fmt.Sprintf("/v1/updates/%d/watch", job.ID)} {
			code, body := serveGET(t, c, path, nil)
			if code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, code, body)
			}
			got += "== GET " + path + "\n" + body
		}
	}
	const golden = "testdata/jobstatus.golden"
	if *updateRESTGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("status / watch bytes changed (-update-rest-golden rewrites %s only when that is the point):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
