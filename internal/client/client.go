// Package client is the typed Go SDK for the controller's /v1 REST
// surface (internal/api): batch update submission, dry-run
// verification, job status, and a streaming watch of round-by-round
// progress. Every binary and harness in this repository talks to the
// controller through this package — none hand-roll HTTP.
//
//	c := client.New("http://127.0.0.1:8080")
//	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{
//		Updates: []api.FlowUpdate{{OldPath: old, NewPath: new, NWDst: "10.0.0.2"}},
//	})
//	events, err := c.Watch(ctx, resp.Updates[0].ID)
//	for ev := range events { ... } // rounds, then a terminal done/failed
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tsu/internal/api"
)

// Client talks to one controller.
type Client struct {
	base    *url.URL      // resolved once; a request sets its path on a copy
	baseErr error         // why base is nil
	hc      *http.Client  // every request and watch stream
	timeout time.Duration // per request attempt, as a context deadline; 0 is none
	retries int
	backoff time.Duration
}

// Option tunes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (proxies, TLS,
// test doubles). The given client is used as it is, never mutated, for
// requests and watch streams alike; leave its Timeout zero, since it
// would cut watch streams too. WithTimeout applies on top of it, as a
// context deadline per request attempt.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds each attempt of a non-streaming request, reading
// its response included (default 30s; zero disables). It is a context
// deadline on the attempt, set only when the caller's context does not
// end sooner; with WithRetry every attempt gets the full timeout.
// Composes with WithHTTPClient in either order.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetry retries idempotent (GET) requests up to n extra times on
// transport errors and 5xx responses, sleeping backoff between
// attempts.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// New creates a client for the controller at baseURL (scheme + host,
// e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{timeout: 30 * time.Second, backoff: 100 * time.Millisecond}
	c.base, c.baseErr = url.Parse(strings.TrimRight(baseURL, "/"))
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	return c
}

// APIError is a non-2xx response decoded from the server's structured
// envelope.
type APIError struct {
	Status  int // HTTP status code
	Code    int // machine-readable api.Code* value (0 when absent)
	Message string
	// Plan is the best-so-far plan shape attached to synthesis
	// budget-exceeded errors (api.CodeSynthBudget); nil otherwise.
	Plan *api.PlanShape
}

func (e *APIError) Error() string {
	if e.Code != 0 {
		return fmt.Sprintf("api error %d (code %d): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api error %d: %s", e.Status, e.Message)
}

// newRequest builds a request for path (and "?query") on a copy of the base URL: nothing is parsed.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, "", body)
	if err = cmp.Or(c.baseErr, err); err != nil {
		return nil, err
	}
	*req.URL, req.Host = *c.base, c.base.Host
	req.URL.Path, req.URL.RawQuery, _ = strings.Cut(c.base.Path+path, "?")
	return req, nil
}

// do runs one request; GETs are retried per WithRetry.
func (c *Client) do(ctx context.Context, method, path string, body, into any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			select {
			case <-time.After(c.backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		retry, err := c.attempt(ctx, method, path, payload, into, try < attempts-1)
		if !retry {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("client: %s %s: %w", method, path, lastErr)
}

// attempt makes one try of a request within the client's timeout, a
// deadline on ctx that also bounds reading the response. retry means
// the failure is one a later attempt (retriable says there is one) may
// get past: a transport error, or a 5xx while another attempt is left.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, into any, retriable bool) (retry bool, err error) {
	if c.timeout > 0 {
		end := time.Now().Add(c.timeout)
		if d, ok := ctx.Deadline(); !ok || d.After(end) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, end)
			defer cancel()
		}
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 500 && retriable:
		return true, decodeAPIError(resp)
	case resp.StatusCode >= 300:
		return false, decodeAPIError(resp)
	case into != nil:
		return false, decodeBody(resp.Body, into)
	}
	return false, nil
}

// bodies holds the buffers response bodies and watch lines are read
// into. One grown past 1 MB (a rare huge listing) is not worth keeping.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 {
		buf.Reset()
		bodies.Put(buf)
	}
}

// decodeBody reads a JSON response to its end and decodes it into into.
func decodeBody(body io.Reader, into any) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	return json.Unmarshal(buf.Bytes(), into)
}

func decodeAPIError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var envelope api.Error
	if json.Unmarshal(body, &envelope) == nil && envelope.Message != "" {
		apiErr.Message = envelope.Message
		apiErr.Code = envelope.Code
		apiErr.Plan = envelope.Plan
	}
	return apiErr
}

// SubmitBatch submits a batch of flow updates (POST /v1/updates).
// With req.DryRun the schedules are returned without executing
// anything.
func (c *Client) SubmitBatch(ctx context.Context, req api.BatchUpdateRequest) (*api.BatchUpdateResponse, error) {
	var resp api.BatchUpdateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/updates", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Verify plans the batch and verifies every schedule against the
// requested properties without touching the switches (POST /v1/verify).
func (c *Client) Verify(ctx context.Context, req api.VerifyRequest) (*api.VerifyResponse, error) {
	var resp api.VerifyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/verify", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Explore plans the batch and runs the adversarial interleaving
// explorer against every schedule without touching the switches
// (POST /v1/explore): the exact search of Verify decides every
// stage, a stage past its budget is reported inexact, and violations
// come back as minimal event traces. Use Verify for a
// fast safe/unsafe verdict; use Explore when you need the concrete
// delivery order that breaks a schedule.
func (c *Client) Explore(ctx context.Context, req api.ExploreRequest) (*api.ExploreResponse, error) {
	var resp api.ExploreResponse
	if err := c.do(ctx, http.MethodPost, "/v1/explore", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job fetches one job's status (GET /v1/updates/{id}).
func (c *Client) Job(ctx context.Context, id int) (*api.JobStatus, error) {
	return c.job(ctx, id, 0, 0)
}

// job is Job for a caller that knows how many installs and rounds the
// status will list: the arrays are decoded at that size, not grown to it.
func (c *Client) job(ctx context.Context, id, installs, rounds int) (*api.JobStatus, error) {
	st := api.JobStatus{
		Installs:          make([]api.InstallStatus, 0, installs),
		MessagesPerSwitch: make([]api.MessageCount, 0, installs),
		Rounds:            make([]api.RoundStatus, 0, rounds),
	}
	if err := c.do(ctx, http.MethodGet, "/v1/updates/"+strconv.Itoa(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists jobs, optionally filtered by state ("queued", "running",
// "done", "failed"; empty lists everything).
func (c *Client) Jobs(ctx context.Context, state string) ([]api.JobStatus, error) {
	path := "/v1/updates"
	if state != "" {
		path += "?state=" + state
	}
	var out []api.JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthz fetches the ops probe (GET /v1/healthz).
func (c *Client) Healthz(ctx context.Context) (*api.Healthz, error) {
	var h api.Healthz
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Switches lists the connected datapath ids (GET /v1/switches).
func (c *Client) Switches(ctx context.Context) ([]uint64, error) {
	var out []uint64
	if err := c.do(ctx, http.MethodGet, "/v1/switches", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// InstallPolicy installs a routing policy along a path
// (POST /v1/policies).
func (c *Client) InstallPolicy(ctx context.Context, req api.PolicyRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/policies", req, nil)
}

// Watch subscribes to a job's progress stream
// (GET /v1/updates/{id}/watch). The returned channel replays rounds
// already executed, then delivers live rounds, and ends with a
// terminal done/failed event before closing. Cancel ctx to stop
// watching; the channel also closes if the stream breaks (callers
// needing a guaranteed verdict should fall back to Job, as Wait does).
func (c *Client) Watch(ctx context.Context, id int) (<-chan api.WatchEvent, error) {
	body, err := c.openWatch(ctx, id)
	if err != nil {
		return nil, err
	}
	events := make(chan api.WatchEvent, 16) // lets the reader run a burst ahead of the consumer
	go func() {
		defer close(events)
		readWatch(body, true, true, func(ev api.WatchEvent) bool {
			select {
			case events <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return events, nil
}

// openWatch opens a job's progress stream; the caller reads it with
// readWatch, which closes it.
func (c *Client) openWatch(ctx context.Context, id int) (io.ReadCloser, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/updates/"+strconv.Itoa(id)+"/watch", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return resp.Body, nil
}

// readWatch is the one reader of a progress stream: it hands every
// event to emit, in order, until the stream ends, an event does not
// decode or emit returns false, and closes the stream. A round or
// install event is decoded only if rounds or installs says so: otherwise
// emit gets the type its "event:" line names and nothing else. A stream
// read to its end leaves its connection reusable.
func readWatch(body io.ReadCloser, rounds, installs bool, emit func(api.WatchEvent) bool) {
	defer body.Close()
	lines, data := bodies.Get().(*bytes.Buffer), bodies.Get().(*bytes.Buffer)
	defer putBody(lines)
	defer putBody(data)
	sc := bufio.NewScanner(body)
	// An event line is a few hundred bytes; a long one grows the buffer,
	// past the pooled one, up to a 1 MB line.
	lines.Grow(512)
	sc.Buffer(lines.AvailableBuffer(), 1<<20)
	var ev api.WatchEvent // decoded into: one for the whole stream
	skip := false         // ev.Type is all of the event being read that is wanted
	flush := func() bool {
		switch {
		case skip:
		case data.Len() == 0:
			return true
		case json.Unmarshal(data.Bytes(), &ev) != nil:
			return false
		}
		data.Reset()
		ok := emit(ev)
		ev, skip = api.WatchEvent{}, false
		return ok
	}
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if !flush() {
				return
			}
		case bytes.HasPrefix(line, []byte("event:")):
			switch string(bytes.TrimSpace(line[len("event:"):])) {
			case api.EventRound:
				ev.Type, skip = api.EventRound, !rounds
			case api.EventInstall:
				ev.Type, skip = api.EventInstall, !installs
			}
		case bytes.HasPrefix(line, []byte("data:")) && !skip:
			data.Write(bytes.TrimSpace(line[len("data:"):]))
			// Other SSE fields (id, retry, comments) are ignored.
		}
	}
	flush()
}

// Wait blocks until the job finishes and returns its final status. It
// follows the watch stream and falls back to polling if the stream
// breaks before the terminal event. A failed job is reported in the
// returned status, not as an error.
func (c *Client) Wait(ctx context.Context, id int) (*api.JobStatus, error) {
	return c.WaitRounds(ctx, id, nil)
}

// WaitRounds is Wait with a per-round callback: onRound (when non-nil)
// is invoked for every round event the watch stream delivers, in
// order, before the final status is returned.
func (c *Client) WaitRounds(ctx context.Context, id int, onRound func(api.RoundStatus)) (*api.JobStatus, error) {
	return c.WaitProgress(ctx, id, onRound, nil)
}

// WaitProgress is Wait with callbacks at both progress granularities
// of the ack-driven dispatcher: onInstall fires for every confirmed
// per-switch install (carrying the dependency edge that released it),
// onRound for every completed layer. Either callback may be nil.
//
// The waiter survives controller restarts: when the watch stream
// breaks before a terminal event it reconnects (the stream replays
// the job's history on every connection, so replayed events are
// deduplicated by count and callbacks fire at most once per round and
// install). Consecutive fruitless reconnects are bounded by the
// WithRetry budget (default 3), sleeping the retry backoff between
// attempts; each delivered event resets the budget. Only after the
// budget is exhausted does it fall back to status polling. A job the
// server does not know (api.CodeUnknownJob: never issued, or finished
// long enough ago to have been evicted) ends the wait at once with that
// *APIError.
func (c *Client) WaitProgress(ctx context.Context, id int, onRound func(api.RoundStatus), onInstall func(api.InstallStatus)) (*api.JobStatus, error) {
	retries := c.retries
	if retries == 0 {
		retries = 3
	}
	var roundsSeen, installsSeen int
	for failures := 0; failures <= retries; {
		body, err := c.openWatch(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if unknownJob(err) {
				return nil, err
			}
			failures++
			if !c.sleepBackoff(ctx) {
				return nil, ctx.Err()
			}
			continue
		}
		var rounds, installs int
		progressed, terminal := false, false
		// Read inline, on to the stream's end: the server closes it right
		// after the terminal event, and ctx cuts a read that hangs.
		// An event nobody is called back for is counted, not decoded.
		readWatch(body, onRound != nil, onInstall != nil, func(ev api.WatchEvent) bool {
			switch ev.Type {
			case api.EventRound:
				if rounds++; rounds <= roundsSeen {
					break // replayed prefix of a reconnect
				}
				roundsSeen, progressed = rounds, true
				if onRound != nil && ev.Round != nil {
					onRound(*ev.Round)
				}
			case api.EventInstall:
				if installs++; installs <= installsSeen {
					break
				}
				installsSeen, progressed = installs, true
				if onInstall != nil && ev.Install != nil {
					onInstall(*ev.Install)
				}
			case api.EventDone, api.EventFailed:
				terminal = true
			}
			return true
		})
		if terminal {
			// The job endpoint is authoritative (it carries timings and
			// the full failure report).
			return c.pollTerminal(ctx, id, installsSeen, roundsSeen)
		}
		// Stream broke before a terminal event (controller restart,
		// proxy hiccup): reconnect, unless the caller gave up.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if progressed {
			failures = 0
		} else {
			failures++
		}
		if failures <= retries && !c.sleepBackoff(ctx) {
			return nil, ctx.Err()
		}
	}
	return c.pollTerminal(ctx, id, installsSeen, roundsSeen)
}

// pollTerminal polls the job until it reaches a terminal state,
// tolerating a bounded run of transient errors (a restarting
// controller answers with connection refused for a moment).
func (c *Client) pollTerminal(ctx context.Context, id, installs, rounds int) (*api.JobStatus, error) {
	var lastErr error
	for failures := 0; ; {
		st, err := c.job(ctx, id, installs, rounds)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if unknownJob(err) {
				return nil, err
			}
			failures++
			lastErr = err
			if failures > 10 {
				return nil, lastErr
			}
		case st.Terminal():
			return st, nil
		default:
			failures = 0
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// unknownJob reports whether err is the server's verdict that it holds
// no such job — never issued, or finished and since evicted (the
// controller keeps a bounded number of finished jobs). No retry changes
// that answer, so the waiters return it at once.
func unknownJob(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == api.CodeUnknownJob
}

// sleepBackoff pauses for the retry backoff; false means ctx ended.
func (c *Client) sleepBackoff(ctx context.Context) bool {
	select {
	case <-time.After(c.backoff):
		return true
	case <-ctx.Done():
		return false
	}
}
