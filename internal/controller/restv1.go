package controller

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"tsu/internal/api"
	"tsu/internal/explore"
	"tsu/internal/metrics"
	"tsu/internal/openflow"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// This file implements the versioned /v1 REST surface (see
// internal/api for the wire schema):
//
//	POST /v1/updates          batch flow-update submission (+ dry-run)
//	GET  /v1/updates          job list, ?state= filtering
//	GET  /v1/updates/{id}     job status
//	GET  /v1/updates/{id}/watch  round-by-round progress as SSE
//	POST /v1/verify           schedule + verify without touching switches
//	POST /v1/explore          schedule + adversarial interleaving explorer
//	POST /v1/policies         install a routing policy along a path
//	GET  /v1/healthz          ops probe (switches, queue depth)
//	GET  /v1/switches         connected datapath ids

// handlerError carries the HTTP status and machine-readable code a
// failed request maps to; plan optionally attaches a best-so-far plan
// shape (synthesis budget exceeded).
type handlerError struct {
	status int
	code   int
	msg    string
	plan   *api.PlanShape
}

func (e *handlerError) Error() string { return e.msg }

func errf(status, code int, format string, args ...any) *handlerError {
	return &handlerError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeErr renders any error as the structured envelope; plain errors
// become 500/CodeInternal.
func writeErr(w http.ResponseWriter, err error) {
	if he, ok := err.(*handlerError); ok {
		writeJSON(w, he.status, api.Error{Message: he.msg, Code: he.code, Plan: he.plan})
		return
	}
	writeJSON(w, http.StatusInternalServerError, api.Error{Message: err.Error(), Code: api.CodeInternal})
}

func (sh dagShape) wire() *api.PlanShape {
	return &api.PlanShape{
		Nodes:        sh.installs,
		Edges:        sh.edges,
		Depth:        sh.depth,
		Width:        sh.width,
		CriticalPath: sh.critical,
		Sparse:       sh.sparse,
	}
}

// accepted converts a plan (and its job, nil on dry-run) to the wire
// shape.
func accepted(p *plannedUpdate, job *Job) api.AcceptedUpdate {
	out := api.AcceptedUpdate{Algorithm: p.Algo}
	if job != nil {
		out.ID = job.ID
	}
	if p.DAG != nil {
		out.Rounds = wireRounds(p.Layered)
		out.Guarantees = p.DAG.Guarantees.String()
		out.Compromise = p.DAG.LoopFreedomCompromised
		out.Plan = planShape(p.DAG)
	} else {
		out.Guarantees = "PerPacketConsistency"
	}
	return out
}

// submitPlanned builds and admits a group of planned updates
// atomically: either every update becomes a job or none does. An entry
// is two-phase or a plan; nothing else reaches the engine.
func (c *Controller) submitPlanned(plans []*plannedUpdate, opts SubmitOptions) ([]*Job, error) {
	jobs := make([]*Job, len(plans))
	for i, p := range plans {
		var err error
		opts.Mode = p.Mode
		if p.DAG == nil {
			jobs[i], err = c.engine.twoPhaseJob(p.In, p.Match, opts)
		} else {
			jobs[i], err = c.engine.planJob(p.In, p.DAG, p.Match, opts)
		}
		if err != nil {
			if len(plans) > 1 {
				return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "updates[%d]: %v", i, err)
			}
			return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		}
	}
	if err := c.engine.enqueueAll(jobs); err != nil {
		if errors.Is(err, ErrQueueFull) {
			return nil, errf(http.StatusServiceUnavailable, api.CodeQueueFull, "%v", err)
		}
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	}
	return jobs, nil
}

// bodies holds the buffers request bodies are read into to be decoded.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeRequest decodes r's body into req. A body that is not one JSON
// value, trailing data included, is answered 400 CodeInvalidJSON.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	buf := bodies.Get().(*bytes.Buffer)
	_, err := buf.ReadFrom(r.Body) // a read error is the one reported, whatever a partial body decodes to
	if err = cmp.Or(err, json.Unmarshal(buf.Bytes(), req)); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidJSON, "invalid JSON: %v", err))
	}
	if buf.Cap() <= 1<<20 { // a rare huge batch is not worth keeping
		buf.Reset()
		bodies.Put(buf)
	}
	return err == nil
}

func (c *Controller) handleV1SubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchUpdateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	plans, err := planBatch(req, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := api.BatchUpdateResponse{DryRun: req.DryRun, Updates: make([]api.AcceptedUpdate, 0, len(plans))}
	if req.DryRun {
		for _, p := range plans {
			resp.Updates = append(resp.Updates, accepted(p, nil))
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	opts := SubmitOptions{Interval: time.Duration(req.Interval) * time.Millisecond, Cleanup: req.Cleanup}
	jobs, err := c.submitPlanned(plans, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	for i, p := range plans {
		resp.Updates = append(resp.Updates, accepted(p, jobs[i]))
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// v1JobStatus converts a Job to the wire shape: passes over the job's
// trace under its lock, straight into the response.
func v1JobStatus(job *Job) api.JobStatus {
	st := api.JobStatus{
		ID:        job.ID,
		Algorithm: job.Algorithm,
		Mode:      job.Mode.String(),
		Plan:      job.shape.wire(),
		Recovered: job.Recovered,
		Rounds:    make([]api.RoundStatus, 0, job.shape.depth), // "rounds" is never null
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	st.Adopted = job.Adopted
	st.Installs = make([]api.InstallStatus, 0, job.shape.installs)
	st.State = job.state.String()
	st.TotalMicros = job.totalLocked().Microseconds()
	if job.err != nil {
		st.Error = job.err.Error()
	}
	if job.failure != nil {
		st.Failure = v1FailureReport(job.failure)
	}
	c := job.Subscribe()
	for ev, ok := c.nextLocked(); ok; ev, ok = c.nextLocked() {
		switch {
		case ev.Install != nil:
			st.Installs = append(st.Installs, v1InstallStatus(ev.Install))
		case ev.Round != nil:
			st.Rounds = append(st.Rounds, v1RoundStatus(ev.Round, nil))
		}
	}
	if counts, total := job.messagesLocked(); len(counts) > 0 {
		st.Messages, st.MessagesPerSwitch = &total, counts
	}
	return st
}

// v1FailureReport converts a job's abort outcome to the wire shape.
func v1FailureReport(f *FailureReport) *api.FailureReport {
	out := &api.FailureReport{
		Phase:            f.Phase,
		TriggeringFault:  f.TriggeringFault,
		Installed:        api.FromPath(topo.Path(f.Installed)),
		RolledBack:       api.FromPath(topo.Path(f.RolledBack)),
		RollbackVerified: f.RollbackVerified,
	}
	for _, s := range f.Stuck {
		out.Stuck = append(out.Stuck, api.StuckNode{
			Switch:    uint64(s.Switch),
			WaitingOn: api.FromPath(topo.Path(s.WaitingOn)),
		})
	}
	return out
}

func v1InstallStatus(it *InstallTiming) api.InstallStatus {
	return api.InstallStatus{
		Switch:     uint64(it.Node),
		Layer:      int(it.Layer),
		ReleasedBy: uint64(it.ReleasedBy),
		FlowMods:   int(it.FlowMods),
		Cleanup:    it.Cleanup,
		Micros:     it.Duration().Microseconds(),
	}
}

// v1RoundStatus converts a round to the wire shape, reusing sw's array.
func v1RoundStatus(t *RoundTiming, sw []uint64) api.RoundStatus {
	sw = slices.Grow(sw[:0], len(t.Switches))
	for _, n := range t.Switches {
		sw = append(sw, uint64(n))
	}
	return api.RoundStatus{Round: t.Round, Switches: sw, Micros: t.Duration().Microseconds(), Cleanup: t.Cleanup}
}

func (c *Controller) handleV1JobStatus(w http.ResponseWriter, r *http.Request) {
	job, err := c.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v1JobStatus(job))
}

func (c *Controller) jobFromPath(r *http.Request) (*Job, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "bad job id %q", r.PathValue("id"))
	}
	job, ok := c.engine.Job(id)
	switch {
	case ok:
		return job, nil
	case c.engine.issued(id):
		return nil, errf(http.StatusNotFound, api.CodeUnknownJob,
			"job %d finished; the controller keeps the last %d finished jobs", id, retainTerminal)
	}
	return nil, errf(http.StatusNotFound, api.CodeUnknownJob, "job %d unknown", id)
}

func (c *Controller) handleV1Jobs(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	if stateFilter != "" {
		if _, ok := ParseJobState(stateFilter); !ok {
			writeErr(w, errf(http.StatusBadRequest, api.CodeBadRequest,
				"unknown state %q (want queued, running, done or failed)", stateFilter))
			return
		}
	}
	out := []api.JobStatus{}
	for _, j := range c.engine.Jobs() {
		if stateFilter != "" && j.State().String() != stateFilter {
			continue
		}
		out = append(out, v1JobStatus(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleV1Watch streams a job's progress as Server-Sent Events:
// already-executed rounds replay first, live rounds follow, and the
// stream always ends with a terminal done/failed event. It is a cursor on
// the job's trace — a client that hangs up leaves nothing behind —
// and the response is flushed whenever the cursor has caught up: the
// headers alone when there is nothing to replay, a finished job's whole
// history at once, a live event the moment it is confirmed. It holds its
// job: one evicted meanwhile still ends here with its terminal event.
func (c *Controller) handleV1Watch(w http.ResponseWriter, r *http.Request) {
	job, err := c.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errf(http.StatusInternalServerError, api.CodeInternal, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Every event of the stream is built in the same three values and
	// framed in, and written from, the one buffer.
	var (
		frame   bytes.Buffer
		ev      = api.WatchEvent{Job: job.ID}
		install api.InstallStatus
		round   api.RoundStatus
	)
	enc := json.NewEncoder(&frame)
	for cur := job.Subscribe(); ; {
		je, more, ok := cur.poll()
		if !ok {
			fl.Flush()
			select {
			case <-more:
				continue
			case <-r.Context().Done():
				return
			}
		}
		ev.Install, ev.Round = nil, nil
		switch {
		case je.Install != nil:
			install = v1InstallStatus(je.Install)
			ev.Type, ev.Install = api.EventInstall, &install
		case je.Round != nil:
			round = v1RoundStatus(je.Round, round.Switches)
			ev.Type, ev.Round = api.EventRound, &round
		case je.State == JobDone:
			ev.Type, ev.TotalMicros = api.EventDone, job.TotalDuration().Microseconds()
		default:
			ev.Type = api.EventFailed
			if je.Err != nil {
				ev.Error = je.Err.Error()
			}
		}
		frame.Reset()
		frame.WriteString("event: ")
		frame.WriteString(ev.Type)
		frame.WriteString("\ndata: ")
		if err := enc.Encode(&ev); err != nil { // ends the data line
			return
		}
		frame.WriteByte('\n')
		if _, err := w.Write(frame.Bytes()); err != nil {
			return
		}
		if ev.Install == nil && ev.Round == nil {
			fl.Flush()
			return
		}
	}
}

// handleV1Verify plans the batch and verifies every schedule against
// the requested properties — a pure dry run, nothing reaches the
// engine or the switches.
func (c *Controller) handleV1Verify(w http.ResponseWriter, r *http.Request) {
	var req api.VerifyRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	plans, err := planDryRun(req.Updates, req.Properties, "verify")
	if err != nil {
		writeErr(w, err)
		return
	}
	// One parallel verification pool for the whole request: every
	// update is checked exactly once, as the plan it would execute,
	// stage by stage.
	tasks := make([]verify.Task, len(plans))
	for i, p := range plans {
		tasks[i] = verify.Task{Instance: p.In, Plan: p.DAG, Props: p.Props}
	}
	reports := verify.Batch(tasks, verify.Options{})
	resp := api.VerifyResponse{OK: true, Results: make([]api.VerifyResult, 0, len(reports))}
	for i, rep := range reports {
		res := api.VerifyResult{
			Algorithm:  plans[i].Algo,
			Rounds:     wireRounds(plans[i].Layered),
			Guarantees: plans[i].DAG.Guarantees.String(),
			Properties: tasks[i].Props.String(),
			OK:         rep.OK(),
			Exact:      rep.Exact(),
			Plan:       planShape(plans[i].DAG),
		}
		if !res.OK {
			resp.OK = false
		}
		for _, rr := range rep.Rounds {
			if rr.Violation != nil {
				res.Violation = &api.Violation{
					Round:    rr.Round,
					Property: rr.Violation.Violated.String(),
					Walk:     api.FromPath(rr.Violation.Walk),
					Updated:  api.FromPath(plans[i].In.StateNodes(rr.Violation.Updated)),
				}
				break
			}
		}
		resp.Results = append(resp.Results, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleV1Explore plans the batch and runs the adversarial
// interleaving explorer against every schedule — like /v1/verify a
// pure dry run, but answering with minimized FlowMod delivery traces
// instead of a bare verdict (see internal/explore for the
// order/state duality that makes the exhaustive mode a proof).
func (c *Controller) handleV1Explore(w http.ResponseWriter, r *http.Request) {
	var req api.ExploreRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	plans, err := planDryRun(req.Updates, req.Properties, "explore")
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := api.ExploreResponse{OK: true, Results: make([]api.ExploreResult, 0, len(plans))}
	for i, p := range plans {
		// The adversary ranges over the DAG's order ideals, stage by
		// stage — for a layered plan exactly its round states — in the
		// engine's one worker pool.
		rep, err := explore.Plan(p.In, p.DAG, explore.Options{
			Props:         p.Props,
			MaxExhaustive: req.MaxExhaustive,
		})
		if err != nil {
			// The schedule came from the server's own planner; a
			// structural mismatch here is a server bug, not bad input.
			writeErr(w, errf(http.StatusInternalServerError, api.CodeInternal, "updates[%d]: %v", i, err))
			return
		}
		res := api.ExploreResult{
			Algorithm:  p.Algo,
			Rounds:     wireRounds(p.Layered),
			Guarantees: p.DAG.Guarantees.String(),
			Properties: rep.Properties.String(),
			OK:         rep.OK(),
			Exhaustive: rep.Exhaustive(),
			Events:     rep.BranchPoints(),
			Plan:       planShape(p.DAG),
		}
		if v := rep.FirstViolation(); v != nil {
			resp.OK = false
			tv := &api.TraceViolation{
				Round:    v.Round,
				Property: v.Violated.String(),
				Trace:    make([]api.TraceEvent, 0, len(v.Trace)),
				Walk:     api.FromPath(v.Walk),
				Updated:  api.FromPath(topo.Path(v.Updated)),
			}
			for _, e := range v.Trace {
				tv.Trace = append(tv.Trace, api.TraceEvent{Round: e.Round, Switch: uint64(e.Switch)})
			}
			res.Violation = tv
		}
		resp.Results = append(resp.Results, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Controller) handleV1Policies(w http.ResponseWriter, r *http.Request) {
	var req api.PolicyRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	ip := net.ParseIP(req.NWDst)
	if ip == nil || ip.To4() == nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidMatch, "nw_dst %q is not an IPv4 address", req.NWDst))
		return
	}
	path := api.ToPath(req.Path)
	if err := path.Validate(); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidPath, "invalid path: %v", err))
		return
	}
	if err := c.InstallPath(r.Context(), path, openflow.ExactNWDst(ip), req.Host); err != nil {
		writeErr(w, errf(http.StatusBadGateway, api.CodeSwitchUnavailable, "installing policy: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"result": "ok"})
}

func (c *Controller) handleV1Healthz(w http.ResponseWriter, _ *http.Request) {
	h := api.Healthz{
		Status:       "ok",
		Switches:     len(c.Datapaths()),
		QueueDepth:   c.engine.QueueDepth(),
		Running:      c.engine.RunningCount(),
		UptimeMicros: c.Uptime().Microseconds(),
	}
	if jl := c.cfg.Journal; jl != nil {
		h.Journal = &api.JournalStatus{Enabled: true, Path: jl.Path(), SizeBytes: jl.Size()}
	}
	h.JobsRetained, h.JobsEvicted = c.engine.Retention()
	if stats, ok := c.engine.Recovery(); ok {
		h.RecoveredJobs = stats.Recovered()
		h.AdoptedJobs = stats.Adopted
	}
	h.Dispatch = &api.DispatchHealth{
		ReadyDepth:       c.engine.disp.ready.Value(),
		InFlight:         c.engine.disp.inflight.Value(),
		BatchedWrites:    uint64(metrics.DispatchBatchMsgs.Count()),
		BatchMeanMsgs:    metrics.DispatchBatchMsgs.Mean(),
		BatchMaxMsgs:     uint64(metrics.DispatchBatchMsgs.Max()),
		JournalBatchMean: metrics.JournalBatchWidth.Mean(),
		JournalBatchMax:  uint64(metrics.JournalBatchWidth.Max()),
		AcksDropped:      uint64(metrics.DispatchAcksDropped.Value()),
	}
	writeJSON(w, http.StatusOK, h)
}
