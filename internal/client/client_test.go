package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/experiments"
	"tsu/internal/topo"
)

// flowA/flowB are disjoint updates on a 4x4 grid (rows 1-4/5-8/9-12/
// 13-16): flow A rides rows 1-2, flow B rows 3-4.
var (
	flowA = api.FlowUpdate{
		OldPath: []uint64{1, 2, 3, 4}, NewPath: []uint64{1, 5, 6, 7, 8, 4},
		NWDst: "10.0.0.2", Algorithm: "peacock",
	}
	flowB = api.FlowUpdate{
		OldPath: []uint64{9, 10, 11, 12}, NewPath: []uint64{9, 13, 14, 15, 16, 12},
		NWDst: "10.0.0.9", Algorithm: "peacock",
	}
)

// gridBed boots a full deployment (controller, REST server, switch
// fleet) and returns its API client.
func gridBed(t *testing.T) (*experiments.Bed, *client.Client) {
	t.Helper()
	bed, err := experiments.NewBed(topo.Grid(4, 4), experiments.BedConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	return bed, bed.Client
}

func TestClientRoundTrip(t *testing.T) {
	_, c := gridBed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, f := range []api.FlowUpdate{flowA, flowB} {
		if err := c.InstallPolicy(ctx, api.PolicyRequest{Path: f.OldPath, NWDst: f.NWDst}); err != nil {
			t.Fatal(err)
		}
	}

	// Dry-run verification first.
	vr, err := c.Verify(ctx, api.VerifyRequest{
		Updates:    []api.FlowUpdate{flowA, flowB},
		Properties: []string{"no-blackhole", "relaxed-lf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK || len(vr.Results) != 2 {
		t.Fatalf("verify = %+v", vr)
	}

	// Batch submit; interval keeps the jobs alive long enough for the
	// watch to attach mid-flight.
	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{
		Updates:  []api.FlowUpdate{flowA, flowB},
		Interval: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Updates) != 2 {
		t.Fatalf("accepted = %+v", resp.Updates)
	}

	// SSE watch: rounds arrive in order and the stream ends with the
	// terminal event.
	events, err := c.Watch(ctx, resp.Updates[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	terminal := ""
	for ev := range events {
		switch ev.Type {
		case api.EventRound:
			if terminal != "" {
				t.Fatal("round event after terminal event")
			}
			rounds = append(rounds, ev.Round.Round)
		case api.EventDone, api.EventFailed:
			terminal = ev.Type
		}
	}
	if terminal != api.EventDone {
		t.Fatalf("terminal = %q", terminal)
	}
	if len(rounds) != len(resp.Updates[0].Rounds) {
		t.Fatalf("rounds seen %v, want %d", rounds, len(resp.Updates[0].Rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("rounds out of order: %v", rounds)
		}
	}

	// Wait on the second job, then list by state.
	st, err := c.Wait(ctx, resp.Updates[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.TotalDuration() <= 0 {
		t.Fatalf("job 2 = %+v", st)
	}
	done, err := c.Jobs(ctx, "done")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("done jobs = %d", len(done))
	}
	running, err := c.Jobs(ctx, "running")
	if err != nil {
		t.Fatal(err)
	}
	if len(running) != 0 {
		t.Fatalf("running jobs = %d", len(running))
	}

	// Ops probes.
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Switches != 16 {
		t.Fatalf("healthz = %+v", h)
	}
	sw, err := c.Switches(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw) != 16 {
		t.Fatalf("switches = %v", sw)
	}
}

// TestClientDecentralizedRoundTrip submits an update in decentralized
// mode through the wire and checks the job status reports the mode,
// the message-count breakdown (two control messages per switch, peer
// acks carrying the dependency edges), and the releasing predecessor
// on non-root installs.
func TestClientDecentralizedRoundTrip(t *testing.T) {
	_, c := gridBed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.InstallPolicy(ctx, api.PolicyRequest{Path: flowA.OldPath, NWDst: flowA.NWDst}); err != nil {
		t.Fatal(err)
	}
	dec := flowA
	dec.Plan = "sparse"
	dec.Mode = "decentralized"
	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{dec}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, resp.Updates[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job = %+v", st)
	}
	if st.Mode != "decentralized" {
		t.Fatalf("mode = %q, want decentralized", st.Mode)
	}
	if st.Messages == nil || st.Messages.Peer == 0 {
		t.Fatalf("messages = %+v, want peer acks", st.Messages)
	}
	if len(st.MessagesPerSwitch) == 0 {
		t.Fatal("per-switch message breakdown missing")
	}
	for _, mc := range st.MessagesPerSwitch {
		if mc.Ctrl != 2 {
			t.Fatalf("switch %d ctrl messages = %d, want 2 (push + report)", mc.Switch, mc.Ctrl)
		}
	}
	if len(st.Installs) != st.Plan.Nodes {
		t.Fatalf("installs = %d, want %d", len(st.Installs), st.Plan.Nodes)
	}
	for _, inst := range st.Installs {
		if inst.Layer > 0 && inst.ReleasedBy == 0 {
			t.Fatalf("install at %d (layer %d) lacks released_by", inst.Switch, inst.Layer)
		}
	}

	// An unknown mode must be rejected atomically.
	bad := flowA
	bad.Mode = "telepathic"
	if _, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{bad}}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestClientExplore round-trips the adversarial interleaving explorer
// through the wire: the one-shot baseline on a path-reversal instance
// must come back with the transient loop as a minimized delivery
// trace, while the safe peacock schedule on the same instance is clean
// — both verdicts proved exhaustively, both reproducible via the seed.
func TestClientExplore(t *testing.T) {
	_, c := gridBed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	reversal := api.FlowUpdate{
		OldPath: []uint64{1, 2, 3, 4, 5, 6},
		NewPath: []uint64{1, 5, 4, 3, 2, 6},
		NWDst:   "10.0.0.6",
	}
	unsafe, safe := reversal, reversal
	unsafe.Algorithm = "oneshot"
	safe.Algorithm = "peacock"

	resp, err := c.Explore(ctx, api.ExploreRequest{
		Updates:    []api.FlowUpdate{unsafe, safe},
		Properties: []string{"relaxed-lf", "no-blackhole"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || len(resp.Results) != 2 {
		t.Fatalf("explore = %+v", resp)
	}
	one := resp.Results[0]
	if one.OK || !one.Exhaustive || one.Violation == nil {
		t.Fatalf("one-shot result = %+v", one)
	}
	if len(one.Violation.Trace) != 1 || one.Violation.Trace[0].Switch != 3 {
		t.Fatalf("minimal trace = %+v, want the single event at switch 3", one.Violation.Trace)
	}
	if one.Violation.Property != "RelaxedLoopFreedom" {
		t.Fatalf("violated property = %q", one.Violation.Property)
	}
	if peacock := resp.Results[1]; !peacock.OK || !peacock.Exhaustive || peacock.Events == 0 {
		t.Fatalf("peacock result = %+v", peacock)
	}

	// Unknown property names surface as the structured error.
	_, err = c.Explore(ctx, api.ExploreRequest{
		Updates:    []api.FlowUpdate{safe},
		Properties: []string{"nonsense"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownProperty {
		t.Fatalf("explore with bad property = %v, want CodeUnknownProperty", err)
	}
}

func TestClientErrorPaths(t *testing.T) {
	_, c := gridBed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	cases := []struct {
		name       string
		run        func() error
		wantStatus int
		wantCode   int
	}{
		{"bad-algorithm", func() error {
			bad := flowA
			bad.Algorithm = "magic"
			_, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{bad}})
			return err
		}, http.StatusBadRequest, api.CodeUnknownAlgorithm},
		{"malformed-path", func() error {
			bad := flowA
			bad.NewPath = []uint64{1}
			_, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{bad}})
			return err
		}, http.StatusBadRequest, api.CodeInvalidPath},
		{"empty-batch", func() error {
			_, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{})
			return err
		}, http.StatusBadRequest, api.CodeEmptyBatch},
		{"unknown-job", func() error {
			_, err := c.Job(ctx, 999)
			return err
		}, http.StatusNotFound, api.CodeUnknownJob},
		{"unknown-job-watch", func() error {
			_, err := c.Watch(ctx, 999)
			return err
		}, http.StatusNotFound, api.CodeUnknownJob},
		{"bad-state-filter", func() error {
			_, err := c.Jobs(ctx, "bogus")
			return err
		}, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("error = %v (%T), want *client.APIError", err, err)
			}
			if apiErr.Status != tc.wantStatus || apiErr.Code != tc.wantCode {
				t.Fatalf("apiErr = %+v, want status %d code %d", apiErr, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestClientRetry pins the WithRetry contract: a transient 5xx on an
// idempotent GET is retried, a 4xx is not.
func TestClientRetry(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"transient","code":1014}`, http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","switches":3}`)) //nolint:errcheck // test write
	}))
	defer srv.Close()

	ctx := context.Background()
	c := client.New(srv.URL, client.WithRetry(2, time.Millisecond))
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Switches != 3 || calls.Load() != 2 {
		t.Fatalf("healthz = %+v after %d calls", h, calls.Load())
	}

	// 4xx responses are terminal even with retries configured.
	calls.Store(0)
	srv404 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"nope","code":1009}`, http.StatusNotFound)
	}))
	defer srv404.Close()
	c404 := client.New(srv404.URL, client.WithRetry(3, time.Millisecond))
	if _, err := c404.Healthz(ctx); err == nil {
		t.Fatal("404 retried into success?")
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried %d times", calls.Load())
	}
}

// TestClientSynthBudget round-trips the per-request synthesis budget:
// a one-refinement budget cannot secure the update and must come back
// as a structured 400/CodeSynthBudget APIError carrying the
// best-so-far plan shape, while the default budget synthesizes a plan
// that executes to completion.
func TestClientSynthBudget(t *testing.T) {
	_, c := gridBed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	update := flowA
	update.Algorithm = "synth"

	tight := update
	tight.SynthBudget = 1
	_, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{tight},
		DryRun:  true,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("tight budget: got %v, want *client.APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != api.CodeSynthBudget {
		t.Fatalf("tight budget: status=%d code=%d, want 400 / %d", apiErr.Status, apiErr.Code, api.CodeSynthBudget)
	}
	if apiErr.Plan == nil || apiErr.Plan.Nodes == 0 {
		t.Fatalf("budget error carries no best-so-far plan shape: %+v", apiErr.Plan)
	}

	// Default budget (0): full synthesis with the portfolio armed.
	if err := c.InstallPolicy(ctx, api.PolicyRequest{Path: update.OldPath, NWDst: update.NWDst}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{update}})
	if err != nil {
		t.Fatal(err)
	}
	acc := resp.Updates[0]
	if acc.Algorithm != "synth" {
		t.Fatalf("accepted algorithm = %q, want synth", acc.Algorithm)
	}
	if acc.Plan == nil || acc.Plan.Depth == 0 {
		t.Fatalf("accepted update has no plan shape: %+v", acc.Plan)
	}
	if acc.Guarantees == "" {
		t.Fatal("synth update reports no guarantees")
	}
	st, err := c.Wait(ctx, acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("synth job = %+v", st)
	}
}

// TestClientWaitSurvivesStreamDrop pins the restart-riding contract of
// WaitProgress: the first watch connection is dropped mid-job (as a
// restarting controller would), the waiter reconnects, the stream
// replays the rounds already delivered, and the per-round callback
// still fires exactly once per round before the terminal status comes
// back.
func TestClientWaitSurvivesStreamDrop(t *testing.T) {
	var conns atomic.Int32
	writeEvent := func(w http.ResponseWriter, ev api.WatchEvent) {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(w, "data: %s\n\n", b)
		w.(http.Flusher).Flush()
	}
	round := func(n int) api.WatchEvent {
		return api.WatchEvent{Type: api.EventRound, Job: 7, Round: &api.RoundStatus{Round: n, Micros: 10}}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/updates/7/watch":
			w.Header().Set("Content-Type", "text/event-stream")
			switch conns.Add(1) {
			case 1:
				// Two rounds, then the stream dies without a terminal
				// event — the client must reconnect, not give up.
				writeEvent(w, round(0))
				writeEvent(w, round(1))
			default:
				// Reconnect: history replays from the start, then the
				// job finishes.
				writeEvent(w, round(0))
				writeEvent(w, round(1))
				writeEvent(w, round(2))
				writeEvent(w, api.WatchEvent{Type: api.EventDone, Job: 7})
			}
		case "/v1/updates/7":
			w.Header().Set("Content-Type", "application/json")
			state := "running"
			if conns.Load() >= 2 {
				state = "done"
			}
			fmt.Fprintf(w, `{"id":7,"state":%q}`, state)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.WithRetry(3, time.Millisecond))
	var rounds []int
	st, err := c.WaitRounds(context.Background(), 7, func(r api.RoundStatus) {
		rounds = append(rounds, r.Round)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("state = %q, want done", st.State)
	}
	if len(rounds) != 3 || rounds[0] != 0 || rounds[1] != 1 || rounds[2] != 2 {
		t.Fatalf("rounds = %v, want [0 1 2] (replay deduplicated)", rounds)
	}
	if conns.Load() < 2 {
		t.Fatalf("connections = %d, want a reconnect", conns.Load())
	}
}

// TestClientWaitPollFallback: when every watch attempt fails outright,
// the waiter exhausts its bounded retries and still resolves the job
// by polling.
func TestClientWaitPollFallback(t *testing.T) {
	var watches atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/updates/3/watch":
			watches.Add(1)
			http.Error(w, `{"error":"no streams today","code":1000}`, http.StatusInternalServerError)
		case "/v1/updates/3":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"id":3,"state":"failed","failure":{"phase":"aborted"}}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.WithRetry(1, time.Millisecond))
	st, err := c.Wait(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Fatalf("state = %q, want failed", st.State)
	}
	if n := watches.Load(); n < 2 {
		t.Fatalf("watch attempts = %d, want the retry budget consumed", n)
	}
}

// TestClientWaitEvictedJob: the controller keeps a bounded number of
// finished jobs, so "unknown job" is an answer real waiters get — and a
// final one. Wait hands it back at once from either leg, where it used
// to spend four watch attempts and eleven polls (≈ 1 s) on it: from the
// watch when the job is already gone, from the status poll when the job
// is evicted between its terminal event and the GET that follows.
func TestClientWaitEvictedJob(t *testing.T) {
	const gone = `{"error":"job 7 finished; the controller keeps the last 1024 finished jobs","code":1009}`
	for _, tc := range []struct {
		name      string
		watchGone bool
		calls     int32
	}{
		{"watch", true, 1},
		{"poll", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				if r.URL.Path == "/v1/updates/7/watch" && !tc.watchGone {
					w.Header().Set("Content-Type", "text/event-stream")
					fmt.Fprint(w, "data: {\"type\":\"done\",\"job\":7}\n\n")
					return
				}
				http.Error(w, gone, http.StatusNotFound)
			}))
			defer srv.Close()

			start := time.Now()
			st, err := client.New(srv.URL).Wait(context.Background(), 7)
			elapsed := time.Since(start)
			var apiErr *client.APIError
			if st != nil || !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound ||
				apiErr.Code != api.CodeUnknownJob || !strings.Contains(apiErr.Message, "keeps the last 1024") {
				t.Fatalf("Wait = %+v, %v; want the server's 404 unknown-job verdict", st, err)
			}
			if n := calls.Load(); n != tc.calls {
				t.Fatalf("%d HTTP calls, want %d: no retry changes that answer", n, tc.calls)
			}
			if elapsed >= 50*time.Millisecond {
				t.Fatalf("Wait took %v to report an unknown job, want < 50 ms (one poll pause is 50 ms, one watch backoff 100)", elapsed)
			}
		})
	}
}

// sseServer serves one job's watch stream: the given events, then EOF.
func sseServer(t *testing.T, events ...api.WatchEvent) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range events {
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "data: %s\n\n", b)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestClientWatchAllocatesLittle pins what one watch stream costs: a
// batch client opens one per job, so a fixed 64 KB line buffer per
// stream was most of what an op allocated. The figure is the whole
// process's — client, transport and the test server's handler.
func TestClientWatchAllocatesLittle(t *testing.T) {
	srv := sseServer(t, api.WatchEvent{Type: api.EventDone, Job: 7})
	c := client.New(srv.URL)
	watch := func() {
		events, err := c.Watch(context.Background(), 7)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ev := range events {
			if n++; ev.Type != api.EventDone {
				t.Fatalf("event %+v", ev)
			}
		}
		if n != 1 {
			t.Fatalf("%d events, want 1", n)
		}
	}
	watch() // the connection and the transport's pools exist from here on
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		watch()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 16<<10 {
		t.Fatalf("one Watch of a finished job allocates %d bytes, want < 16 KB", perCall)
	} else {
		t.Logf("%d bytes per Watch", perCall)
	}
}

// TestClientWatchLongLine: an event longer than the scanner's starting
// buffer — and than the 64 KB it used to start with — still decodes.
func TestClientWatchLongLine(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	srv := sseServer(t, api.WatchEvent{Type: api.EventFailed, Job: 7, Error: long})
	events, err := client.New(srv.URL).Watch(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := <-events
	if !ok || ev.Type != api.EventFailed || ev.Error != long {
		t.Fatalf("got event type %q with a %d-byte error (ok=%v), want the %d-byte one", ev.Type, len(ev.Error), ok, len(long))
	}
}

// TestClientWaitReadsInlineOnOneConnection: WaitProgress reads the
// watch stream on the caller's goroutine, fires each callback once, and
// reads the stream to its end — so the status request that follows, and
// every later Wait, rides the same connection.
func TestClientWaitReadsInlineOnOneConnection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/updates/7/watch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range []api.WatchEvent{
			{Type: api.EventInstall, Job: 7, Install: &api.InstallStatus{Switch: 3}},
			{Type: api.EventRound, Job: 7, Round: &api.RoundStatus{Switches: []uint64{3}}},
			{Type: api.EventDone, Job: 7},
		} {
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
			w.(http.Flusher).Flush() // the terminal event and the stream's end arrive apart
		}
	})
	mux.HandleFunc("GET /v1/updates/7", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.JobStatus{ID: 7, State: "done"}) //nolint:errcheck // test server
	})
	srv := httptest.NewUnstartedServer(mux)
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := client.New(srv.URL)
	for i := 0; i < 5; i++ {
		rounds, installs := 0, 0
		st, err := c.WaitProgress(context.Background(), 7,
			func(api.RoundStatus) { rounds++ },
			func(api.InstallStatus) { installs++ })
		if err != nil || st.State != "done" || rounds != 1 || installs != 1 {
			t.Fatalf("wait %d: %+v, %v; %d rounds, %d installs", i, st, err, rounds, installs)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 waits (10 requests) opened %d connections, want 1", n)
	}
}

// TestClientWaitCountsSkippedEvents: WaitProgress de-duplicates a
// reconnect's replayed prefix by count, and an event it does not decode
// — nobody is called back for it — still counts. The stream is cut
// after 2 events, then 3 (one more install), then twice after 4 (one
// more round, then nothing new), then replayed in full: with a retry
// budget of one fruitless reconnect the waiter only reaches the terminal
// event on the stream if both the installs and the round counted as
// progress. Same calls with and without callbacks; with them every
// install and round is delivered exactly once.
func TestClientWaitCountsSkippedEvents(t *testing.T) {
	var stream []api.WatchEvent
	for i := 0; i < 6; i++ {
		stream = append(stream, api.WatchEvent{Type: api.EventInstall, Job: 7, Install: &api.InstallStatus{Switch: uint64(10 + i), Layer: i / 3}})
		if i%3 == 2 {
			stream = append(stream, api.WatchEvent{Type: api.EventRound, Job: 7, Round: &api.RoundStatus{Round: i / 3, Switches: []uint64{1}}})
		}
	}
	stream = append(stream, api.WatchEvent{Type: api.EventDone, Job: 7})
	for _, callbacks := range []bool{false, true} {
		var watches, statuses atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/updates/7/watch", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			cut := map[int32]int{1: 2, 2: 3, 3: 4, 4: 4}[watches.Add(1)] // events before the stream dies; then all of it
			for i, ev := range stream {
				if cut > 0 && i == cut {
					return
				}
				b, _ := json.Marshal(ev)
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
			}
		})
		mux.HandleFunc("GET /v1/updates/7", func(w http.ResponseWriter, r *http.Request) {
			statuses.Add(1)
			json.NewEncoder(w).Encode(api.JobStatus{ID: 7, State: "done", Installs: make([]api.InstallStatus, 6)}) //nolint:errcheck // test server
		})
		srv := httptest.NewServer(mux)
		var installs []uint64
		var rounds []int
		var onRound func(api.RoundStatus)
		var onInstall func(api.InstallStatus)
		if callbacks {
			onRound = func(r api.RoundStatus) { rounds = append(rounds, r.Round) }
			onInstall = func(i api.InstallStatus) { installs = append(installs, i.Switch) }
		}
		st, err := client.New(srv.URL, client.WithRetry(1, time.Millisecond)).WaitProgress(context.Background(), 7, onRound, onInstall)
		srv.Close()
		if err != nil || st.State != "done" || len(st.Installs) != 6 {
			t.Fatalf("callbacks=%v: %+v, %v", callbacks, st, err)
		}
		if watches.Load() != 5 || statuses.Load() != 1 {
			t.Fatalf("callbacks=%v: %d watch and %d status calls, want 5 and 1 (a cut that delivered new events is progress)", callbacks, watches.Load(), statuses.Load())
		}
		if callbacks && (fmt.Sprint(installs) != "[10 11 12 13 14 15]" || fmt.Sprint(rounds) != "[0 1]") {
			t.Fatalf("installs %v, rounds %v: want each delivered once, in order", installs, rounds)
		}
	}
}

// passThrough forwards every request to rt: net/http cannot tell it
// from a RoundTripper that needs the legacy cancel path.
type passThrough struct{ rt http.RoundTripper }

func (p passThrough) RoundTrip(r *http.Request) (*http.Response, error) { return p.rt.RoundTrip(r) }

// hungServer answers nothing until the client hangs up (or the test
// ends); calls counts the requests it got.
func hungServer(t *testing.T, calls *atomic.Int32) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs first: no handler outlives the test
	return srv
}

// TestClientTimeoutHungRequest: WithTimeout fails a GET and a POST that
// get no answer at about the timeout, through the bare transport and
// through a RoundTripper that wraps it.
func TestClientTimeoutHungRequest(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, wrapped := range []bool{false, true} {
		var calls atomic.Int32
		srv := hungServer(t, &calls)
		opts := []client.Option{client.WithTimeout(timeout)}
		if wrapped {
			opts = append(opts, client.WithHTTPClient(&http.Client{Transport: passThrough{http.DefaultTransport}}))
		}
		c := client.New(srv.URL, opts...)
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"GET", func() error { _, err := c.Healthz(context.Background()); return err }},
			{"POST", func() error { return c.InstallPolicy(context.Background(), api.PolicyRequest{Path: []uint64{1, 2}}) }},
		} {
			start := time.Now()
			err := call.do()
			if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took < timeout || took > 20*timeout {
				t.Errorf("wrapped=%v %s: %v after %v, want a deadline error after about %v", wrapped, call.name, err, took, timeout)
			}
		}
		if calls.Load() != 2 {
			t.Errorf("wrapped=%v: the server got %d requests, want 2", wrapped, calls.Load())
		}
	}
}

// TestClientTimeoutPerAttempt: with WithRetry each attempt gets the
// whole timeout. The first attempt hangs; the second answers after half
// of the timeout, which a deadline shared by the attempts would cut.
func TestClientTimeoutPerAttempt(t *testing.T) {
	const timeout = 400 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done()
			return
		}
		time.Sleep(timeout / 2)
		w.Write([]byte(`{"status":"ok","switches":3}`)) //nolint:errcheck // test write
	}))
	defer srv.Close()
	h, err := client.New(srv.URL, client.WithTimeout(timeout), client.WithRetry(1, time.Millisecond)).Healthz(context.Background())
	if err != nil || h.Switches != 3 || calls.Load() != 2 {
		t.Fatalf("healthz = %+v, %v after %d calls; want the second attempt's answer", h, err, calls.Load())
	}
}

// TestClientTimeoutCallerDeadlineWins: a caller's context that ends
// before the timeout ends the request then.
func TestClientTimeoutCallerDeadlineWins(t *testing.T) {
	var calls atomic.Int32
	srv := hungServer(t, &calls)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.New(srv.URL, client.WithTimeout(time.Minute)).Healthz(ctx)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 10*time.Second {
		t.Fatalf("%v after %v, want the caller's deadline error after about 100ms", err, took)
	}
}

// TestClientTimeoutSparesWatchStream: the timeout bounds requests, not
// watch streams — a Wait whose stream stays open past it reads on to the
// terminal event over the one stream and returns the status.
func TestClientTimeoutSparesWatchStream(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var watches atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/updates/7/watch", func(w http.ResponseWriter, r *http.Request) {
		watches.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		for i, ev := range []api.WatchEvent{
			{Type: api.EventInstall, Job: 7, Install: &api.InstallStatus{Switch: 3}},
			{Type: api.EventDone, Job: 7},
		} {
			if i > 0 {
				time.Sleep(3 * timeout)
			}
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("GET /v1/updates/7", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.JobStatus{ID: 7, State: "done"}) //nolint:errcheck // test server
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	st, err := client.New(srv.URL, client.WithTimeout(timeout)).Wait(context.Background(), 7)
	if err != nil || st.State != "done" || watches.Load() != 1 {
		t.Fatalf("Wait = %+v, %v over %d watch streams; want done over 1", st, err, watches.Load())
	}
}
