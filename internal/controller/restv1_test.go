package controller

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func restTestbed(t *testing.T) (*testbed, *httptest.Server) {
	t.Helper()
	tb := newTestbed(t, topo.Fig1(), nil)
	srv := httptest.NewServer(tb.ctrl.RESTHandler())
	t.Cleanup(srv.Close)
	return tb, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func fig1Update(algorithm string) api.FlowUpdate {
	return api.FlowUpdate{
		OldPath:   []uint64{1, 2, 3, 4, 5, 6, 12},
		NewPath:   []uint64{1, 7, 8, 3, 9, 10, 11, 12},
		Waypoint:  3,
		Algorithm: algorithm,
		NWDst:     "10.0.0.2",
	}
}

func decodeInto(t *testing.T, body []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

func TestV1BatchSubmitListAndHealthz(t *testing.T) {
	tb, srv := restTestbed(t)

	// Two flows over Fig.1, moving in opposite directions.
	if resp, body := postJSON(t, srv.URL+"/v1/policies", api.PolicyRequest{
		Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: "10.0.0.2", Host: "h2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/policies", api.PolicyRequest{
		Path: []uint64{1, 7, 8, 3, 9, 10, 11, 12}, NWDst: "10.0.0.9", Host: "h2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	second := api.FlowUpdate{
		OldPath:  []uint64{1, 7, 8, 3, 9, 10, 11, 12},
		NewPath:  []uint64{1, 2, 3, 4, 5, 6, 12},
		Waypoint: 3,
		NWDst:    "10.0.0.9",
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{fig1Update(""), second},
		Cleanup: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	if len(br.Updates) != 2 {
		t.Fatalf("accepted %d updates", len(br.Updates))
	}
	for _, acc := range br.Updates {
		if acc.ID == 0 || acc.Algorithm != "wayup" {
			t.Fatalf("accepted = %+v", acc)
		}
	}

	// Both jobs complete; per-job status carries rounds incl. cleanup.
	deadline := time.Now().Add(20 * time.Second)
	for _, acc := range br.Updates {
		for {
			var st api.JobStatus
			if code := getJSON(t, fmt.Sprintf("%s/v1/updates/%d", srv.URL, acc.ID), &st); code != http.StatusOK {
				t.Fatalf("status code %d", code)
			}
			if st.State == "done" {
				if len(st.Rounds) != len(acc.Rounds)+1 {
					t.Fatalf("job %d rounds %d, want %d + cleanup", acc.ID, len(st.Rounds), len(acc.Rounds))
				}
				if !st.Rounds[len(st.Rounds)-1].Cleanup {
					t.Fatalf("job %d last round not flagged cleanup", acc.ID)
				}
				break
			}
			if st.State == "failed" || time.Now().After(deadline) {
				t.Fatalf("job %d state %q (%s)", acc.ID, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Forwarding flipped for both flows.
	if res := tb.fabric.Inject(1, nwDstOf("10.0.0.2"), 64); !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("flow A path %v", res.Visited)
	}
	if res := tb.fabric.Inject(1, nwDstOf("10.0.0.9"), 64); !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("flow B path %v", res.Visited)
	}

	// List filtering.
	var done []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates?state=done", &done); code != http.StatusOK || len(done) != 2 {
		t.Fatalf("state=done: code %d, %d jobs", code, len(done))
	}
	var running []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates?state=running", &running); code != http.StatusOK || len(running) != 0 {
		t.Fatalf("state=running: code %d, %d jobs", code, len(running))
	}
	if code := getJSON(t, srv.URL+"/v1/updates?state=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("state=bogus code %d", code)
	}

	// Healthz.
	var h api.Healthz
	if code := getJSON(t, srv.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz code %d", code)
	}
	if h.Status != "ok" || h.Switches != 12 || h.QueueDepth != 0 || h.Running != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Dispatch == nil {
		t.Fatal("healthz missing dispatch section")
	}
	if d := h.Dispatch; d.InFlight != 0 || d.ReadyDepth != 0 {
		t.Fatalf("dispatch health = %+v", d)
	}
	// Two updates already executed through the dispatch path, so the
	// batch histogram cannot be empty. (Metrics are process-global, so
	// assert floors, not exact counts.)
	if d := h.Dispatch; d.BatchedWrites == 0 || d.BatchMaxMsgs < 2 {
		t.Fatalf("dispatch batching not observed: %+v", d)
	}
}

func TestV1DryRunSubmitsNothing(t *testing.T) {
	_, srv := restTestbed(t)
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{fig1Update("")},
		DryRun:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry-run: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	if !br.DryRun || len(br.Updates) != 1 {
		t.Fatalf("response = %+v", br)
	}
	acc := br.Updates[0]
	if acc.ID != 0 || acc.Algorithm != "wayup" || len(acc.Rounds) == 0 {
		t.Fatalf("accepted = %+v", acc)
	}
	var jobs []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("dry run created jobs: %v", jobs)
	}
}

func TestV1Verify(t *testing.T) {
	_, srv := restTestbed(t)

	// WayUp verifies clean against its own guarantees.
	resp, body := postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{
		Updates: []api.FlowUpdate{fig1Update("wayup")},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d %s", resp.StatusCode, body)
	}
	var vr api.VerifyResponse
	decodeInto(t, body, &vr)
	if !vr.OK || len(vr.Results) != 1 || !vr.Results[0].OK || vr.Results[0].Violation != nil {
		t.Fatalf("wayup verify = %+v", vr)
	}

	// One-shot on a waypoint instance must surface a violation with a
	// concrete counterexample walk.
	resp, body = postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{
		Updates: []api.FlowUpdate{fig1Update("oneshot")},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify oneshot: %d %s", resp.StatusCode, body)
	}
	decodeInto(t, body, &vr)
	if vr.OK || len(vr.Results) != 1 {
		t.Fatalf("oneshot verify = %+v", vr)
	}
	res := vr.Results[0]
	if res.OK || res.Violation == nil || len(res.Violation.Walk) == 0 || res.Violation.Property == "" {
		t.Fatalf("oneshot result = %+v", res)
	}

	// Per-update properties are check targets on this endpoint, not an
	// execution contract: asking what one-shot would break w.r.t.
	// waypoint enforcement must answer, not 400.
	perUpdate := fig1Update("oneshot")
	perUpdate.Properties = []string{"no-blackhole", "waypoint"}
	resp, body = postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{
		Updates: []api.FlowUpdate{perUpdate},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify per-update props: %d %s", resp.StatusCode, body)
	}
	decodeInto(t, body, &vr)
	if vr.OK || vr.Results[0].Violation == nil {
		t.Fatalf("per-update props verify = %+v", vr)
	}
	if got := vr.Results[0].Properties; got != "NoBlackhole|WaypointEnforcement" {
		t.Fatalf("checked properties = %q", got)
	}

	// Explicit properties override the schedule's own guarantees.
	resp, body = postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{
		Updates:    []api.FlowUpdate{fig1Update("wayup")},
		Properties: []string{"no-blackhole", "waypoint"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify props: %d %s", resp.StatusCode, body)
	}
	decodeInto(t, body, &vr)
	if got := vr.Results[0].Properties; got != "NoBlackhole|WaypointEnforcement" {
		t.Fatalf("checked properties = %q", got)
	}
}

// TestV1MixedBatchMatchesSolo sends /v1/verify and /v1/explore one
// request mixing the three plan shapes the stage engine decides — a
// layered update, a plan "sparse" update (a DAG stage, then a one-node
// stage) and a one-shot update checked against waypoint enforcement
// and blackhole freedom —
// and requires every entry of the batched answer to equal the answer
// to the same update sent alone: one verify.Batch call serves the whole
// request, whatever the shapes. Fig. 1-sized stages are all decided
// exactly, so no position-seeded sampling runs.
func TestV1MixedBatchMatchesSolo(t *testing.T) {
	_, srv := restTestbed(t)
	layered, sparse, oneshot := fig1Update("wayup"), fig1Update("greedy-slf"), fig1Update("oneshot")
	sparse.Plan, sparse.NWDst = "sparse", "10.0.0.3"
	oneshot.Properties, oneshot.NWDst = []string{"no-blackhole", "waypoint"}, "10.0.0.4"
	updates := []api.FlowUpdate{layered, sparse, oneshot}

	var batch, solo api.VerifyResponse
	resp, body := postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{Updates: updates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify batch: %d %s", resp.StatusCode, body)
	}
	decodeInto(t, body, &batch)
	if batch.OK || len(batch.Results) != 3 || !batch.Results[0].OK || !batch.Results[1].OK ||
		!batch.Results[1].Plan.Sparse || batch.Results[2].Violation == nil {
		t.Fatalf("verify batch = %s", body)
	}
	for i, u := range updates {
		_, body := postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{Updates: []api.FlowUpdate{u}})
		solo = api.VerifyResponse{}
		decodeInto(t, body, &solo)
		if len(solo.Results) != 1 || !solo.Results[0].Exact || !reflect.DeepEqual(solo.Results[0], batch.Results[i]) {
			t.Fatalf("verify updates[%d]: alone %+v, in the batch %+v", i, solo.Results, batch.Results[i])
		}
	}

	var ebatch, esolo api.ExploreResponse
	resp, body = postJSON(t, srv.URL+"/v1/explore", api.ExploreRequest{Updates: updates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore batch: %d %s", resp.StatusCode, body)
	}
	decodeInto(t, body, &ebatch)
	if ebatch.OK || len(ebatch.Results) != 3 || !ebatch.Results[0].OK || !ebatch.Results[1].OK ||
		ebatch.Results[2].Violation == nil || ebatch.Results[2].Properties != "NoBlackhole|WaypointEnforcement" {
		t.Fatalf("explore batch = %s", body)
	}
	for i, u := range updates {
		_, body := postJSON(t, srv.URL+"/v1/explore", api.ExploreRequest{Updates: []api.FlowUpdate{u}})
		esolo = api.ExploreResponse{}
		decodeInto(t, body, &esolo)
		if len(esolo.Results) != 1 || !esolo.Results[0].Exhaustive || !reflect.DeepEqual(esolo.Results[0], ebatch.Results[i]) {
			t.Fatalf("explore updates[%d]: alone %+v, in the batch %+v", i, esolo.Results, ebatch.Results[i])
		}
	}
}

func TestV1ErrorTable(t *testing.T) {
	_, srv := restTestbed(t)
	good := fig1Update("")
	batch, _ := json.Marshal(api.BatchUpdateRequest{Updates: []api.FlowUpdate{good}})
	cases := []struct {
		name       string
		url        string
		body       any
		wantStatus int
		wantCode   int
	}{
		{"bad-json", "/v1/updates", "{", http.StatusBadRequest, api.CodeInvalidJSON},
		{"trailing-data", "/v1/updates", string(batch) + "garbage", http.StatusBadRequest, api.CodeInvalidJSON},
		{"empty-batch", "/v1/updates", api.BatchUpdateRequest{}, http.StatusBadRequest, api.CodeEmptyBatch},
		{"negative-interval", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{good}, Interval: -5,
		}, http.StatusBadRequest, api.CodeInvalidInterval},
		{"bad-ip", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: good.OldPath, NewPath: good.NewPath, NWDst: "nope"}},
		}, http.StatusBadRequest, api.CodeInvalidMatch},
		{"short-path", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: []uint64{1}, NewPath: []uint64{1, 2}, NWDst: "10.0.0.2"}},
		}, http.StatusBadRequest, api.CodeInvalidPath},
		{"waypoint-off-path", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: good.OldPath, NewPath: good.NewPath, Waypoint: 99, NWDst: "10.0.0.2"}},
		}, http.StatusBadRequest, api.CodeInvalidWaypoint},
		{"unknown-algorithm", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: good.OldPath, NewPath: good.NewPath, Algorithm: "magic", NWDst: "10.0.0.2"}},
		}, http.StatusBadRequest, api.CodeUnknownAlgorithm},
		{"wayup-needs-wp", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: []uint64{1, 2, 3}, NewPath: []uint64{1, 7, 8, 3}, Algorithm: "wayup", NWDst: "10.0.0.2"}},
		}, http.StatusBadRequest, api.CodeScheduleFailed},
		{"second-entry-invalid", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{good, {OldPath: []uint64{1}, NewPath: []uint64{1, 2}, NWDst: "10.0.0.2"}},
		}, http.StatusBadRequest, api.CodeInvalidPath},
		{"props-not-guaranteed", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: good.OldPath, NewPath: good.NewPath, Waypoint: 3, NWDst: "10.0.0.2",
				Algorithm: "peacock", Properties: []string{"waypoint"}}},
		}, http.StatusBadRequest, api.CodeScheduleFailed},
		{"bad-update-property", "/v1/updates", api.BatchUpdateRequest{
			Updates: []api.FlowUpdate{{OldPath: good.OldPath, NewPath: good.NewPath, NWDst: "10.0.0.2", Properties: []string{"magic"}}},
		}, http.StatusBadRequest, api.CodeUnknownProperty},
		{"verify-bad-property", "/v1/verify", api.VerifyRequest{
			Updates: []api.FlowUpdate{good}, Properties: []string{"magic"},
		}, http.StatusBadRequest, api.CodeUnknownProperty},
		{"verify-two-phase", "/v1/verify", api.VerifyRequest{
			Updates: []api.FlowUpdate{fig1Update("two-phase")},
		}, http.StatusBadRequest, api.CodeScheduleFailed},
		{"policy-bad-path", "/v1/policies", api.PolicyRequest{Path: []uint64{1}, NWDst: "10.0.0.2"}, http.StatusBadRequest, api.CodeInvalidPath},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if raw, isRaw := c.body.(string); isRaw {
				r, err := http.Post(srv.URL+c.url, "application/json", strings.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				buf.ReadFrom(r.Body) //nolint:errcheck // test read
				r.Body.Close()
				resp, body = r, buf.Bytes()
			} else {
				resp, body = postJSON(t, srv.URL+c.url, c.body)
			}
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, c.wantStatus)
			}
			var envelope api.Error
			decodeInto(t, body, &envelope)
			if envelope.Code != c.wantCode || envelope.Message == "" {
				t.Fatalf("envelope = %+v, want code %d", envelope, c.wantCode)
			}
		})
	}

	// Atomic validation: the second-entry-invalid case must not have
	// submitted its valid first entry.
	var jobs []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("invalid batch leaked jobs: %v", jobs)
	}

	// Job lookup errors.
	if code := getJSON(t, srv.URL+"/v1/updates/999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/updates/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad job id code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/updates/999/watch", nil); code != http.StatusNotFound {
		t.Fatalf("watch unknown job code %d", code)
	}
}

// TestV1BatchAdmissionAtomic pins the admission contract: a batch
// larger than the engine's remaining capacity is rejected whole — no
// prefix of it leaks into execution.
func TestV1BatchAdmissionAtomic(t *testing.T) {
	_, srv := restTestbed(t)
	big := make([]api.FlowUpdate, 200) // maxAdmitted is 128
	for i := range big {
		big[i] = fig1Update("")
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{Updates: big})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, body)
	}
	var envelope api.Error
	decodeInto(t, body, &envelope)
	if envelope.Code != api.CodeQueueFull {
		t.Fatalf("code = %d, want %d", envelope.Code, api.CodeQueueFull)
	}
	var jobs []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("rejected batch leaked %d jobs", len(jobs))
	}
}

// TestV1UpdateProperties pins that a per-update property selection
// reaches the scheduler: sequential scheduled for strong loop freedom
// reports it in its guarantees.
func TestV1UpdateProperties(t *testing.T) {
	_, srv := restTestbed(t)
	u := fig1Update("sequential")
	u.Properties = []string{"no-blackhole", "strong-lf"}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{u},
		DryRun:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry-run: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	if g := br.Updates[0].Guarantees; !strings.Contains(g, "StrongLoopFreedom") {
		t.Fatalf("guarantees = %q, want StrongLoopFreedom included", g)
	}
}

// TestV1WatchStreamsRounds reads the raw SSE stream: every round
// event arrives in order, each as an `event:` line plus a `data:`
// JSON payload, and the stream terminates with a done event.
func TestV1WatchStreamsRounds(t *testing.T) {
	_, srv := restTestbed(t)
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates:  []api.FlowUpdate{fig1Update("")},
		Interval: 10, // ms between rounds: keeps the job alive while we attach
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	id := br.Updates[0].ID

	res, err := http.Get(fmt.Sprintf("%s/v1/updates/%d/watch", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var rounds []int
	var terminal string
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev api.WatchEvent
		decodeInto(t, []byte(strings.TrimPrefix(line, "data:")), &ev)
		switch ev.Type {
		case api.EventRound:
			rounds = append(rounds, ev.Round.Round)
		case api.EventDone, api.EventFailed:
			terminal = ev.Type
		}
	}
	if terminal != api.EventDone {
		t.Fatalf("terminal event = %q (rounds %v)", terminal, rounds)
	}
	if len(rounds) != len(br.Updates[0].Rounds) {
		t.Fatalf("saw %d round events, want %d", len(rounds), len(br.Updates[0].Rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("rounds out of order: %v", rounds)
		}
	}
}

// TestV1FailureReportRoundTrip drives an abort end to end through the
// REST surface: a switch that drops barrier replies forces the engine
// to abort and attempt a rollback whose own barrier is equally lost,
// and GET /v1/updates/{id} must carry the structured failure report —
// phase, exact installed/rolled-back sets, and the stuck node with
// its blocking dependency list — in the wire shape the SDK decodes.
func TestV1FailureReportRoundTrip(t *testing.T) {
	g := topo.Fig1()
	tb := newTestbedWithConfig(t, g, Config{Topology: g, RoundTimeout: 300 * time.Millisecond},
		func(n topo.NodeID) switchsim.Config {
			cfg := switchsim.Config{Node: n}
			if n == 7 {
				cfg.Faults = switchsim.Faults{DropBarriers: true}
			}
			return cfg
		})
	srv := httptest.NewServer(tb.ctrl.RESTHandler())
	t.Cleanup(srv.Close)

	if resp, body := postJSON(t, srv.URL+"/v1/policies", api.PolicyRequest{
		Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: "10.0.0.2", Host: "h2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{fig1Update("peacock")},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	if len(br.Updates) != 1 {
		t.Fatalf("accepted %d updates", len(br.Updates))
	}

	var st api.JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, fmt.Sprintf("%s/v1/updates/%d", srv.URL, br.Updates[0].ID), &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if st.State == "failed" || st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: state %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "failed" {
		t.Fatalf("state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "rollback failed") {
		t.Fatalf("error = %q", st.Error)
	}
	f := st.Failure
	if f == nil {
		t.Fatal("failed job status carries no failure report")
	}
	if f.Phase != PhaseRollbackFailed {
		t.Fatalf("phase = %q, want %q", f.Phase, PhaseRollbackFailed)
	}
	if !f.RollbackVerified {
		t.Fatal("reverse plan should have verified before execution")
	}
	if f.TriggeringFault == "" {
		t.Fatal("failure report names no triggering fault")
	}
	if len(f.Stuck) != 1 || f.Stuck[0].Switch != 7 {
		t.Fatalf("stuck = %+v, want exactly switch 7", f.Stuck)
	}
	asSet := func(ids []uint64) map[uint64]bool {
		m := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	installed, rolledBack := asSet(f.Installed), asSet(f.RolledBack)
	if len(installed) == 0 {
		t.Fatal("failure report lists no installed switches")
	}
	// 7's FlowMod applied although its barrier reply never came: the
	// switch says so when asked after the abort, so it is installed, and
	// it is the one install the rollback could not undo.
	if !installed[7] || rolledBack[7] {
		t.Fatalf("switch 7 applied but never confirmed: installed %v rolled back %v", f.Installed, f.RolledBack)
	}
	if len(installed) != len(rolledBack)+1 {
		t.Fatalf("installed %v is not rolled back %v plus switch 7", f.Installed, f.RolledBack)
	}
	for id := range rolledBack {
		if !installed[id] {
			t.Fatalf("rolled back switch %d missing from installed %v", id, f.Installed)
		}
	}
}

// TestV1Switches pins the one route rest.go still serves itself.
func TestV1Switches(t *testing.T) {
	_, srv := restTestbed(t)
	var dpids []uint64
	if code := getJSON(t, srv.URL+"/v1/switches", &dpids); code != http.StatusOK || len(dpids) != 12 {
		t.Fatalf("switches: code %d, %v", code, dpids)
	}
}

func TestV1PolicyInstall(t *testing.T) {
	tb, srv := restTestbed(t)
	req := api.PolicyRequest{Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: FlowIPForTest, Host: "h2"}
	resp, body := postJSON(t, srv.URL+"/v1/policies", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	res := tb.fabric.Inject(1, nwDstOf(FlowIPForTest), 64)
	if res.Outcome != switchsim.ProbeDelivered || res.Host != "h2" {
		t.Fatalf("probe after policy install = %+v", res)
	}
	// Validation errors.
	for name, bad := range map[string]api.PolicyRequest{
		"bad-ip":    {Path: []uint64{1, 2}, NWDst: "x"},
		"bad-path":  {Path: []uint64{1}, NWDst: FlowIPForTest},
		"bad-host":  {Path: []uint64{1, 2}, NWDst: FlowIPForTest, Host: "nope"},
		"bad-links": {Path: []uint64{1, 12}, NWDst: FlowIPForTest},
	} {
		resp, _ := postJSON(t, srv.URL+"/v1/policies", bad)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestV1TwoPhaseAndCleanup(t *testing.T) {
	tb, srv := restTestbed(t)
	req := api.PolicyRequest{Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: FlowIPForTest, Host: "h2"}
	if resp, body := postJSON(t, srv.URL+"/v1/policies", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{fig1Update("two-phase")},
		Cleanup: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("two-phase update: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	acc := br.Updates[0]
	if acc.Algorithm != "two-phase" || acc.Guarantees != "PerPacketConsistency" || acc.Plan != nil || len(acc.Rounds) != 0 {
		t.Fatalf("response = %+v", acc)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st api.JobStatus
		if code := getJSON(t, fmt.Sprintf("%s/v1/updates/%d", srv.URL, acc.ID), &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if st.State == "done" {
			if len(st.Rounds) != 3 { // prepare, commit, cleanup
				t.Fatalf("rounds = %d, want 3", len(st.Rounds))
			}
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res := tb.fabric.Inject(1, nwDstOf(FlowIPForTest), 64)
	if !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path = %v", res.Visited)
	}
	// Cleanup removed old-only rules.
	for _, n := range []topo.NodeID{2, 4, 5, 6} {
		if tb.fabric.Switch(n).Table().Len() != 0 {
			t.Fatalf("stale rule on switch %d after REST cleanup", n)
		}
	}
}

// TestV1PlanShapeAndRoundsPinned pins the `rounds` and `plan` members
// of the submit (dry run and live) and verify responses, byte for byte
// after compaction, for every plan selector on a heuristic and on the
// synthesizer: the wire reports the scheduler's rounds and the shape of
// the DAG that executes, whichever form the server keeps internally.
func TestV1PlanShapeAndRoundsPinned(t *testing.T) {
	_, srv := restTestbed(t)
	const (
		rounds  = `[[7,8,9,10,11],[1,3]]`
		layered = `{"nodes":7,"edges":10,"depth":2,"width":5,"critical_path":1}`
		sparse  = `{"nodes":7,"edges":5,"depth":2,"width":5,"critical_path":1,"sparse":true}`
	)
	type wire struct {
		Rounds json.RawMessage `json:"rounds"`
		Plan   json.RawMessage `json:"plan"`
	}
	check := func(t *testing.T, what string, got wire, wantPlan string) {
		t.Helper()
		var r, p bytes.Buffer
		if err := json.Compact(&r, got.Rounds); err != nil {
			t.Fatalf("%s rounds: %v", what, err)
		}
		if err := json.Compact(&p, got.Plan); err != nil {
			t.Fatalf("%s plan: %v", what, err)
		}
		if r.String() != rounds || p.String() != wantPlan {
			t.Fatalf("%s: rounds %s plan %s, want %s and %s", what, &r, &p, rounds, wantPlan)
		}
	}
	for _, algo := range []string{"peacock", "synth"} {
		for plan, wantPlan := range map[string]string{"": layered, "layered": layered, "sparse": sparse} {
			t.Run(fmt.Sprintf("%s/plan=%q", algo, plan), func(t *testing.T) {
				u := fig1Update(algo)
				u.Waypoint = 0
				u.Plan = plan
				for _, dry := range []bool{true, false} {
					resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{Updates: []api.FlowUpdate{u}, DryRun: dry})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
						t.Fatalf("submit dry_run=%v: %d %s", dry, resp.StatusCode, body)
					}
					var br struct {
						Updates []wire `json:"updates"`
					}
					decodeInto(t, body, &br)
					check(t, fmt.Sprintf("submit dry_run=%v", dry), br.Updates[0], wantPlan)
				}
				resp, body := postJSON(t, srv.URL+"/v1/verify", api.VerifyRequest{Updates: []api.FlowUpdate{u}})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("verify: %d %s", resp.StatusCode, body)
				}
				var vr struct {
					OK      bool   `json:"ok"`
					Results []wire `json:"results"`
				}
				decodeInto(t, body, &vr)
				if !vr.OK {
					t.Fatalf("verify rejected the plan: %s", body)
				}
				check(t, "verify", vr.Results[0], wantPlan)
			})
		}
	}
}
