// Package api defines the wire schema of the controller's versioned
// /v1 REST surface: batch flow-update submission, job status and
// streaming watch events, dry-run verification, and the operational
// probes. The server (internal/controller) and the typed SDK
// (internal/client) share these types, so a request marshalled by the
// client is by construction the request the server decodes.
package api

import (
	"time"

	"tsu/internal/topo"
)

// Error is the structured error envelope every handler returns on
// failure: a human-readable message plus a machine-readable code (one
// of the Code* constants below), alongside the HTTP status.
type Error struct {
	Message string `json:"error"`
	Code    int    `json:"code"`
	// Plan carries the best-so-far plan shape when a synthesis budget
	// is exceeded (CodeSynthBudget); nil otherwise.
	Plan *PlanShape `json:"plan,omitempty"`
}

// Machine-readable error codes carried in Error.Code.
const (
	// CodeInvalidJSON: the request body is not one valid JSON value.
	CodeInvalidJSON = 1001
	// CodeInvalidPath: a path is malformed (shorter than 2 nodes,
	// repeated nodes, endpoint mismatch between old and new).
	CodeInvalidPath = 1002
	// CodeInvalidWaypoint: the waypoint is not strictly interior to
	// both paths.
	CodeInvalidWaypoint = 1003
	// CodeInvalidMatch: the flow match (nw_dst) is not an IPv4 address.
	CodeInvalidMatch = 1004
	// CodeUnknownAlgorithm: the algorithm name is not registered.
	CodeUnknownAlgorithm = 1005
	// CodeInvalidInterval: the inter-round interval is negative.
	CodeInvalidInterval = 1006
	// CodeEmptyBatch: the batch contains no updates.
	CodeEmptyBatch = 1007
	// CodeScheduleFailed: the scheduler rejected the instance (e.g.
	// wayup without a waypoint).
	CodeScheduleFailed = 1008
	// CodeUnknownJob: no job with the requested id — never issued, or
	// finished and no longer retained (see JobStatus).
	CodeUnknownJob = 1009
	// CodeBadRequest: other malformed request input (bad job id, bad
	// dpid, unknown filter value, ...).
	CodeBadRequest = 1010
	// CodeQueueFull: the engine's admission limit is reached.
	CodeQueueFull = 1011
	// CodeUnknownProperty: a verify property name is not recognized.
	CodeUnknownProperty = 1012
	// CodeSwitchUnavailable: a referenced switch is not connected or
	// not in the topology.
	CodeSwitchUnavailable = 1013
	// CodeInternal: unexpected server-side failure.
	CodeInternal = 1014
	// CodeSynthBudget: the per-request synthesis budget was exceeded
	// before the "synth" scheduler found a verified plan; Error.Plan
	// holds the best-so-far plan shape.
	CodeSynthBudget = 1015
)

// FlowUpdate is one entry of a batch: migrate one flow from its old
// path to its new path. Paths list datapath ids in forwarding order.
type FlowUpdate struct {
	OldPath []uint64 `json:"oldpath"`
	NewPath []uint64 `json:"newpath"`
	// Waypoint is an optional middlebox that must never be bypassed
	// (0 = none); it must lie strictly inside both paths.
	Waypoint uint64 `json:"wp,omitempty"`
	// Algorithm selects the scheduler: any registered name (see
	// core.Names) or "two-phase". Empty picks wayup when a waypoint is
	// set, peacock otherwise.
	Algorithm string `json:"algorithm,omitempty"`
	// NWDst identifies the flow (IPv4 destination), e.g. "10.0.0.2".
	NWDst string `json:"nw_dst"`
	// Properties optionally names the transient-consistency
	// properties the scheduler must preserve ("no-blackhole",
	// "waypoint", "relaxed-lf", "strong-lf"); empty uses the
	// scheduler's defaults. Schedulers that take a property target
	// (sequential, optimal) honor it.
	Properties []string `json:"properties,omitempty"`
	// Plan selects the execution-plan shape: "layered" (or empty)
	// executes the schedule's rounds as a layered dependency DAG —
	// bit-identical to global-barrier rounds — while "sparse" asks the
	// scheduler for a pruned DAG whose edges are only those its safety
	// argument needs (falling back to layered when the scheduler has
	// no sparse form). The response's PlanShape reports what ran.
	Plan string `json:"plan,omitempty"`
	// Mode selects the dispatch path: "controller" (or empty) keeps
	// the controller in the loop for every happens-before edge, while
	// "decentralized" pushes every switch the plan once and
	// lets the switches release each other peer-to-peer, reporting
	// back only on completion.
	Mode string `json:"mode,omitempty"`
	// SynthBudget caps the CEGIS refinements when Algorithm is
	// "synth" (0 = server default, which also arms the heuristic
	// portfolio fallback). A positive budget runs pure synthesis; if
	// the oracle still finds violations past it, the request fails
	// with a 400/CodeSynthBudget error whose Plan field reports the
	// best-so-far plan shape.
	SynthBudget int `json:"synth_budget,omitempty"`
}

// PlanShape summarizes an execution plan's DAG on the wire: how many
// per-switch installs it has, how many happens-before edges, its
// depth (layers — for a round schedule, the round count), width (peak
// install parallelism), critical path (sequential barrier waits on
// the longest dependency chain), and whether edges were pruned below
// the layered closure.
type PlanShape struct {
	Nodes        int  `json:"nodes"`
	Edges        int  `json:"edges"`
	Depth        int  `json:"depth"`
	Width        int  `json:"width"`
	CriticalPath int  `json:"critical_path"`
	Sparse       bool `json:"sparse,omitempty"`
}

// InstallStatus reports one confirmed per-switch install of the
// ack-driven dispatcher, including the dependency edge that released
// it: ReleasedBy is the switch whose barrier reply unblocked this
// install (0 for installs with no dependencies).
type InstallStatus struct {
	Switch     uint64 `json:"switch"`
	Layer      int    `json:"layer"`
	ReleasedBy uint64 `json:"released_by,omitempty"`
	FlowMods   int    `json:"flowmods"`
	Cleanup    bool   `json:"cleanup,omitempty"`
	Micros     int64  `json:"us"`
}

// BatchUpdateRequest is the body of POST /v1/updates: a batch of flow
// updates plus batch-level options. Both validation and admission are
// atomic — if any entry is invalid or the engine cannot admit the
// whole batch, nothing is submitted.
type BatchUpdateRequest struct {
	Updates []FlowUpdate `json:"updates"`
	// Interval pauses between rounds, in milliseconds.
	Interval int `json:"interval,omitempty"`
	// Cleanup appends a garbage-collection round per flow deleting the
	// old policy's stale rules.
	Cleanup bool `json:"cleanup,omitempty"`
	// DryRun computes and returns the schedules without submitting
	// anything to the engine or the switches.
	DryRun bool `json:"dry_run,omitempty"`
}

// AcceptedUpdate reports one accepted (or dry-run planned) flow update.
type AcceptedUpdate struct {
	// ID is the job id to poll or watch (0 on dry-run).
	ID         int        `json:"id,omitempty"`
	Algorithm  string     `json:"algorithm"`
	Rounds     [][]uint64 `json:"rounds,omitempty"`
	Guarantees string     `json:"guarantees"`
	Compromise bool       `json:"loop_freedom_compromised,omitempty"`
	// Plan is the execution DAG's shape (depth, width, critical path).
	Plan *PlanShape `json:"plan,omitempty"`
}

// BatchUpdateResponse is the body answering POST /v1/updates.
type BatchUpdateResponse struct {
	DryRun  bool             `json:"dry_run,omitempty"`
	Updates []AcceptedUpdate `json:"updates"`
}

// RoundStatus reports one executed round.
type RoundStatus struct {
	Round    int      `json:"round"`
	Switches []uint64 `json:"switches"`
	Micros   int64    `json:"us"`
	Cleanup  bool     `json:"cleanup,omitempty"`
}

// Duration returns the round's wall-clock time.
func (r RoundStatus) Duration() time.Duration {
	return time.Duration(r.Micros) * time.Microsecond
}

// MessageCount is one switch's message tally for a job: Ctrl counts
// controller↔switch messages (FlowMods, barriers and replies, or
// plan push + completion report), Peer counts direct
// switch↔switch dependency acks (decentralized mode only).
type MessageCount struct {
	Switch uint64 `json:"switch,omitempty"`
	Ctrl   int    `json:"ctrl"`
	Peer   int    `json:"peer,omitempty"`
}

// StuckNode is one installed-but-not-rolled-back switch in a failure
// report, with the switches whose uninstall must come first (the
// reverse plan's unmet dependencies).
type StuckNode struct {
	Switch    uint64   `json:"switch"`
	WaitingOn []uint64 `json:"waiting_on,omitempty"`
}

// FailureReport is the structured outcome of a job that aborted
// mid-plan, attached to JobStatus when State is "failed". Phase tells
// how far recovery got: "aborted" (a controller restart could not
// rebuild the job from its journaled admit record), "rolled-back" (the
// reverse plan verified safe and every installed node was undone),
// "rollback-failed" (verified but execution failed partway), or "stuck"
// (the reverse plan did not verify safe; rules were left in place).
type FailureReport struct {
	Phase string `json:"phase"`
	// TriggeringFault describes the failure that aborted the plan.
	TriggeringFault string `json:"triggering_fault,omitempty"`
	// Installed lists the switches whose installs were in effect when
	// the controller asked the switches after the abort — exactly what
	// the rollback reverses; RolledBack lists those undone, a subset.
	Installed  []uint64 `json:"installed,omitempty"`
	RolledBack []uint64 `json:"rolled_back,omitempty"`
	// RollbackVerified reports whether the reverse plan passed
	// verification (or is two-phase) before anything was undone.
	RollbackVerified bool `json:"rollback_verified,omitempty"`
	// Stuck lists installed nodes left in place with their blocking
	// dependencies (phases "stuck" and "rollback-failed").
	Stuck []StuckNode `json:"stuck,omitempty"`
}

// JobStatus reports a job's progress (GET /v1/updates/{id}).
//
// The controller remembers a bounded number of finished jobs (the newest
// 1024, each kept as its install log, which this status and a late watch
// replay are views of; Healthz counts them). An older id answers 404 with
// CodeUnknownJob and a message saying so — the same code as an id never
// issued, and the same answer a finished job gives after a controller
// restart has compacted it out of the journal.
type JobStatus struct {
	ID          int           `json:"id"`
	State       string        `json:"state"` // queued | running | done | failed
	Algorithm   string        `json:"algorithm"`
	Error       string        `json:"error,omitempty"`
	TotalMicros int64         `json:"total_us"`
	Rounds      []RoundStatus `json:"rounds"`
	// Mode is the dispatch path that ran ("controller" or
	// "decentralized").
	Mode string `json:"mode,omitempty"`
	// Plan is the execution DAG's shape.
	Plan *PlanShape `json:"plan,omitempty"`
	// Installs is the per-switch install trace in confirmation order;
	// each entry records which dependency edge released the install.
	Installs []InstallStatus `json:"installs,omitempty"`
	// Messages is the job's total message tally; MessagesPerSwitch
	// breaks it down by switch in ascending switch order.
	Messages          *MessageCount  `json:"messages,omitempty"`
	MessagesPerSwitch []MessageCount `json:"messages_per_switch,omitempty"`
	// Failure is the structured abort outcome (failed jobs only).
	Failure *FailureReport `json:"failure,omitempty"`
	// Recovered marks a job reconstructed from the journal after a
	// controller restart; Adopted additionally marks a mid-flight job
	// whose journal and switch state reconciled, so execution resumed
	// from the recovered frontier instead of rolling back.
	Recovered bool `json:"recovered,omitempty"`
	Adopted   bool `json:"adopted,omitempty"`
}

// TotalDuration returns the job's wall-clock time (zero while
// unfinished).
func (s JobStatus) TotalDuration() time.Duration {
	return time.Duration(s.TotalMicros) * time.Microsecond
}

// Terminal reports whether the job has finished (done or failed).
func (s JobStatus) Terminal() bool { return s.State == "done" || s.State == "failed" }

// Watch event types (WatchEvent.Type).
const (
	// EventInstall: one per-switch install confirmed (Install is set).
	EventInstall = "install"
	// EventRound: one round (layer) completed (Round is set).
	EventRound = "round"
	// EventDone: the job finished successfully (terminal).
	EventDone = "done"
	// EventFailed: the job failed (terminal; Error is set).
	EventFailed = "failed"
)

// WatchEvent is one Server-Sent Event of GET /v1/updates/{id}/watch.
// A watch replays the installs and rounds already executed, then
// streams live progress, and always ends with a terminal done/failed
// event. The "event:" line names the Type ahead of the "data:" payload,
// so a reader may skip the payload of a type it does not use.
type WatchEvent struct {
	Type        string         `json:"type"`
	Job         int            `json:"job"`
	Round       *RoundStatus   `json:"round,omitempty"`
	Install     *InstallStatus `json:"install,omitempty"`
	Error       string         `json:"error,omitempty"`
	TotalMicros int64          `json:"total_us,omitempty"`
}

// VerifyRequest is the body of POST /v1/verify: plan the batch and
// verify every schedule against the requested transient-consistency
// properties — a pure dry run, nothing reaches the switches. Every
// stage (a round of a layered plan; a block between series cuts of a
// sparse one) is decided by one exact search, and a stage it cannot
// decide within its budget is reported inexact, never sampled.
type VerifyRequest struct {
	Updates []FlowUpdate `json:"updates"`
	// Properties to check: "no-blackhole", "waypoint", "relaxed-lf",
	// "strong-lf". Empty verifies each schedule's own guarantees (the
	// one-shot baseline, which guarantees nothing, is checked against
	// the consistent schedulers' properties so the dry run shows what
	// would break).
	Properties []string `json:"properties,omitempty"`
}

// Violation is a found counterexample: a reachable transient state
// whose forwarding walk violates a property.
type Violation struct {
	// Round is the stage of the plan that was in flight: the round for
	// a layered plan, the block between two series cuts for a sparse
	// one (not necessarily 0).
	Round    int      `json:"round"`
	Property string   `json:"property"`
	Walk     []uint64 `json:"walk"`
	// Updated lists the in-flight switches of the violating subset.
	Updated []uint64 `json:"updated,omitempty"`
}

// VerifyResult is one flow's verification verdict.
type VerifyResult struct {
	Algorithm  string     `json:"algorithm"`
	Rounds     [][]uint64 `json:"rounds"`
	Guarantees string     `json:"guarantees"`
	Properties string     `json:"properties"` // what was actually checked
	OK         bool       `json:"ok"`
	Exact      bool       `json:"exact"` // every stage decided within the budget
	// Plan is the shape of the verified execution DAG; sparse plans
	// are verified over every order ideal instead of round states.
	Plan      *PlanShape `json:"plan,omitempty"`
	Violation *Violation `json:"violation,omitempty"`
}

// VerifyResponse answers POST /v1/verify. OK is the conjunction over
// all results.
type VerifyResponse struct {
	OK      bool           `json:"ok"`
	Results []VerifyResult `json:"results"`
}

// ExploreRequest is the body of POST /v1/explore: plan the batch and
// run the adversarial interleaving explorer against every schedule —
// a pure dry run, nothing reaches the switches. Where /v1/verify
// answers "is this schedule safe?", /v1/explore answers "show me the
// FlowMod delivery trace that breaks it": the same exact search
// decides every stage, and a violating stage's witness comes back as a
// minimal delivery trace. A stage the search cannot decide within
// its budget is reported inexact, as /v1/verify reports it.
type ExploreRequest struct {
	Updates []FlowUpdate `json:"updates"`
	// Properties to check after every event: "no-blackhole",
	// "waypoint", "relaxed-lf", "strong-lf". The same precedence as
	// /v1/verify applies: per-update properties, then this set, then
	// the schedule's own guarantees (one-shot gets the consistent
	// schedulers' properties, so the dry run shows what breaks).
	Properties []string `json:"properties,omitempty"`
	// MaxExhaustive bounds each stage's search to 1<<MaxExhaustive
	// branch points, so a round of up to that many switches is always
	// decided (0 = explorer default, 18; capped at 20).
	MaxExhaustive int `json:"max_exhaustive,omitempty"`
}

// TraceEvent is one FlowMod taking effect at one switch.
type TraceEvent struct {
	Round  int    `json:"round"`
	Switch uint64 `json:"switch"`
}

// TraceViolation is a found counterexample: a minimal FlowMod
// delivery trace whose replay violates a property.
type TraceViolation struct {
	// Round is the stage of the plan that was in flight, as in
	// Violation.Round; a TraceEvent's Round is the node's layer.
	Round    int    `json:"round"`
	Property string `json:"property"`
	// Trace is the minimal delivery sequence: replaying exactly
	// these events after the earlier stages still violates, and
	// dropping any single event no other depends on makes it pass.
	Trace []TraceEvent `json:"trace"`
	Walk  []uint64     `json:"walk"`
	// Updated lists the violating state's in-flight switches.
	Updated []uint64 `json:"updated,omitempty"`
}

// ExploreResult is one flow's exploration verdict.
type ExploreResult struct {
	Algorithm  string     `json:"algorithm"`
	Rounds     [][]uint64 `json:"rounds"`
	Guarantees string     `json:"guarantees"`
	Properties string     `json:"properties"` // what was actually checked
	OK         bool       `json:"ok"`
	// Exhaustive: the search decided every stage (the verdict is a
	// proof); otherwise some stage ran out of its budget.
	Exhaustive bool `json:"exhaustive"`
	// Events counts the branch points the search spent over every
	// stage: the in-flight switches it branched on.
	Events int `json:"events"`
	// Plan is the shape of the explored execution DAG.
	Plan      *PlanShape      `json:"plan,omitempty"`
	Violation *TraceViolation `json:"violation,omitempty"`
}

// ExploreResponse answers POST /v1/explore. OK is the conjunction
// over all results.
type ExploreResponse struct {
	OK      bool            `json:"ok"`
	Results []ExploreResult `json:"results"`
}

// PolicyRequest installs a complete routing policy along a path
// (POST /v1/policies): every switch forwards the flow to its
// successor; the final switch delivers to the named host when set.
type PolicyRequest struct {
	Path  []uint64 `json:"path"`
	NWDst string   `json:"nw_dst"`
	Host  string   `json:"host,omitempty"`
}

// FromPath converts a topology path to its wire form.
func FromPath(p topo.Path) []uint64 {
	out := make([]uint64, len(p))
	for i, n := range p {
		out[i] = uint64(n)
	}
	return out
}

// ToPath converts a wire path back to a topology path.
func ToPath(ids []uint64) topo.Path {
	p := make(topo.Path, len(ids))
	for i, v := range ids {
		p[i] = topo.NodeID(v)
	}
	return p
}

// Healthz answers GET /v1/healthz — the load-balancer/ops probe.
type Healthz struct {
	Status string `json:"status"` // always "ok" when the handler answers
	// Switches is the number of connected datapaths.
	Switches int `json:"switches"`
	// QueueDepth counts jobs admitted but not yet executing.
	QueueDepth int `json:"queue_depth"`
	// Running counts jobs currently executing rounds.
	Running int `json:"running"`
	// JobsRetained counts the finished jobs the controller still answers
	// for, JobsEvicted those it has forgotten since it started (see
	// JobStatus).
	JobsRetained int `json:"jobs_retained"`
	JobsEvicted  int `json:"jobs_evicted"`
	// UptimeMicros is how long the controller has been running, on its
	// own clock (virtual under simulated time).
	UptimeMicros int64 `json:"uptime_us,omitempty"`
	// Journal reports the job journal's state; nil when the controller
	// runs without durability.
	Journal *JournalStatus `json:"journal,omitempty"`
	// RecoveredJobs counts non-terminal jobs the last restart brought
	// back (re-queued, adopted, or rolled back); AdoptedJobs counts the
	// subset resumed from their recovered frontier.
	RecoveredJobs int `json:"recovered_jobs,omitempty"`
	AdoptedJobs   int `json:"adopted_jobs,omitempty"`
	// Dispatch reports the dispatch path's live state.
	Dispatch *DispatchHealth `json:"dispatch,omitempty"`
}

// DispatchHealth describes the ack-driven dispatch path, where every
// walk writes its own installs: how many installs wait for their send
// slot, how many are on the wire, and what writes and journal appends
// carry.
type DispatchHealth struct {
	// ReadyDepth counts installs journaled and released but not yet
	// written.
	ReadyDepth int64 `json:"ready_depth"`
	// InFlight counts installs written to a switch and awaiting a
	// barrier reply.
	InFlight int64 `json:"in_flight"`
	// BatchedWrites counts coalesced buffered writes; BatchMeanMsgs and
	// BatchMaxMsgs describe how many OpenFlow messages each carried.
	BatchedWrites uint64  `json:"batched_writes"`
	BatchMeanMsgs float64 `json:"batch_mean_msgs"`
	BatchMaxMsgs  uint64  `json:"batch_max_msgs"`
	// JournalBatchMean and JournalBatchMax describe the width (nodes per
	// append) of grouped dispatched-delta journal records.
	JournalBatchMean float64 `json:"journal_batch_mean"`
	JournalBatchMax  uint64  `json:"journal_batch_max"`
	// AcksDropped counts barrier replies that found the job's ack
	// channel full (the install is then resolved by its round timeout).
	AcksDropped uint64 `json:"acks_dropped"`
}

// Uptime returns the controller's uptime as a duration.
func (h Healthz) Uptime() time.Duration {
	return time.Duration(h.UptimeMicros) * time.Microsecond
}

// JournalStatus describes the controller's write-ahead job journal.
type JournalStatus struct {
	Enabled   bool   `json:"enabled"`
	Path      string `json:"path,omitempty"`
	SizeBytes int64  `json:"size_bytes,omitempty"`
}
