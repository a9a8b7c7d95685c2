// Package tsu reproduces "Towards Transiently Secure Updates in
// Asynchronous SDNs" (Shukla, Schütze, Ludwig, Dudycz, Schmid,
// Feldmann — SIGCOMM 2016): a controller that installs routing-policy
// updates in barrier-delimited rounds computed by consistency-
// preserving schedulers (WayUp for waypoint enforcement, Peacock for
// relaxed loop freedom), so that an asynchronous control channel can
// never expose a transiently insecure forwarding state.
//
// Execution is plan-shaped: core.Plan is a dependency DAG of
// per-switch installs whose reachable transient states are the DAG's
// order ideals, and it is the one update form: every scheduler returns
// one. A round scheduler returns the layered plan of its rounds
// (core.Layered), bit-identical to the paper's global-barrier rounds;
// core.SparsePlan prunes a Peacock or GreedySLF one to the edges its
// safety argument needs, and synthesis returns its DAG. Either way the
// controller dispatches the plan ack-driven —
// each FlowMod issued the moment its dependencies' barriers arrive, so
// a slow switch stalls only its own dependents — and the plan that was
// verified is, node for node, the plan that is journaled and run.
//
// Execution is also decentralizable: the controller pushes every
// switch the plan itself, in the journal's encoding, with that
// switch's FlowMods (internal/planwire vendor messages); each switch's
// plan agent derives its own nodes and edges from it, installs nodes
// as in-edge acks arrive and acks its out-edges peer-to-peer over the
// fabric, so a dependency edge costs a sub-millisecond hop instead of
// two control RTTs. The partial order — and therefore the reachable
// ideal space, the verifier verdicts and the explorer fingerprints —
// is unchanged by who relays the acks (TestDecentralizedBitIdentical).
//
// Execution is also recoverable: netem.Faults injects seeded
// drop/duplicate/reorder faults per message class and switchsim
// crashes switches mid-plan (optionally wiping their tables). On a
// barrier timeout, stall or failed push the engine aborts, asks every
// plan switch what took effect (the reconcile a restart runs too),
// reverses exactly that ideal (Plan.Reverse — the rollback's transient
// states are forward sub-ideals, so verified plans roll back safe),
// re-verifies the reverse plan, and executes it only on a safe
// verdict; otherwise the job reports itself stuck with the precise
// unmet dependencies. The structured failure report rides the /v1
// job status into the SDK and updatectl.
//
// Execution is also durable, against two kinds of controller failure.
// Process death (kill -9; Journal.Crash in tests) keeps every byte the
// engine appended to its journal, and a release wave's dispatched
// record is appended before any of its FlowMods leave, so nothing took
// effect that no record names: a restart requeues a job with no
// dispatched record, and adopts or rolls back the others from one
// reconcile. Power loss (Journal.PowerLoss) keeps only what an fsync
// covered. Admit and terminal records are committed before the engine
// goes on, so every admitted and every finished job is still known;
// the dispatched records since the last fsync (fewer than syncEvery =
// 32 nodes) may be gone while their FlowMods landed. What the switches
// applied is still an order ideal of the plan — a node leaves only
// once its dependencies confirmed — so a job left with no dispatched
// record re-runs its plan through unions of two ideals, which are
// ideals, and a job whose surviving records name fewer nodes than its
// switches applied is not adoptable (state took effect that nothing on
// record ordered) and rolls back exactly what the switches report.
// Confirms are lower bounds under both. Recovery
// rolls back rather than adopts or requeues only on a switch that
// contradicts the journal (a wiped table, silence) or after a power
// loss. Out of the model: a disk that acknowledges an fsync it did not
// perform, and a lost journal file. TestCrashRestartRecovery and
// TestCrashRestartPowerLoss kill the engine at every dispatch boundary
// of each.
//
// The library lives under internal/:
//
//   - internal/core      — update model, schedulers (the paper's contribution),
//     and the plan layer: Plan/Layered/SparsePlan, Plan.Stages (the
//     split at series cuts the stage engine works through), the
//     order-ideal enumeration (the tests' reference), PlanRun
//     (allocation-free ack-dispatch bookkeeping), and the canonical plan
//     wire codec; RoundChecker's branching walk search
//     (RoundChecker.Decide) is the one search behind every verdict,
//     trace and counterexample, SparsePlan's check among them
//   - internal/synth     — counterexample-guided plan synthesis (CEGIS): grows
//     a minimal-depth sparse DAG edge by edge from the minimal
//     counterexample ideals verify.PlanCounterexample returns, with
//     budgets, a refinement transcript, a heuristic portfolio fallback,
//     and the optimality-gap report (synth.Compare) quantifying how far
//     each heuristic is from optimum
//   - internal/verify    — the one decider: a stage engine (verify.Plan /
//     verify.Batch for verdicts, verify.Traces for minimal traces) that
//     materializes each stage of a plan once with its pre-state and
//     decides it in one worker pool by the branching walk search,
//     inexact past its budget; Traces shrinks each violating stage's
//     witness to a minimal violating order ideal, and the
//     PlanCounterexample entry returns one for the whole plan, for the
//     synthesizer's refinement loop
//   - internal/explore   — adversarial interleaving explorer, a view over
//     the verify engine: explore.Plan renders each stage's minimal
//     counterexample as a FlowMod delivery trace tagged with node layers,
//     with the search's branch-point count and a Fingerprint — plus the
//     timed virtual-clock replay of a plan, stage by stage
//   - internal/simclock  — virtual time base: Clock interface, Sim discrete-event
//     scheduler with deterministic (time, seq) ordering and AutoAdvance;
//     AfterFunc for timer-driven duties — the tree's one timer heap
//   - internal/topo      — topologies, update families, the Figure 1 scenario
//   - internal/openflow  — OpenFlow 1.0-subset wire protocol
//   - internal/planwire  — vendor-message payloads for decentralized execution
//     (plan push, completion report, state query/report)
//   - internal/ofconn    — framing, handshake, xid management
//   - internal/switchsim — simulated switches, data-plane fabric and the
//     decentralized plan agent (clock-parameterized); fault injection:
//     crash-after-N-FlowMods with optional table wipe, per-class
//     drop/duplicate/reorder; one layout: peer acks are Clock.AfterFunc
//     timers, a switch at rest costs its reader and arms no timer
//   - internal/netem     — control-channel asynchrony models and the seeded
//     probabilistic fault model (netem.Faults) on a pluggable clock
//   - internal/controller— the controller: one plan in, one job out — a single
//     materializer turns a core.Plan plus one FlowMod per node into the
//     execution DAG (a two-phase update is a small plan builder, every
//     job carries a rollback spec, recovery rebuilds through the same
//     constructor) and a single job lifecycle runs it — no worker
//     pool: a job launches when the last earlier conflicting job
//     finishes (a counter, not a parked goroutine), at admission if
//     there is none; one southbound walker
//     (Engine.walk), ack-driven and the only writer of its own installs
//     (no dispatch pool, goroutine- and allocation-free per install,
//     one write-ahead journal record per release wave), executes every FlowMod+barrier
//     the controller sends — forward
//     plans, verified rollbacks, policy installs and bare barriers — with
//     per-node barriers (layered plans reproduce the paper's round loop) or
//     decentralized plan broadcast (ModeDecentralized),
//     REST API (/v1/verify and /v1/explore are the dry-run surfaces; jobs
//     report plan shape, per-install release edges, ctrl/peer message counts
//     and the structured failure report of the abort/rollback path);
//     with a journal configured, the engine admits the journal's jobs as it
//     is built, and Engine.Recover adopts or rolls back mid-flight frontiers by reconciling
//     against live switch state — the reconcile every live abort runs. A job's encoded trace (its installs and message tallies) is the one
//     record of its progress: rounds, status, message counts and every
//     watcher (a cursor) are views of it. What the controller remembers is bounded by what is in flight:
//     a finished job keeps that trace, its status and message counts and the
//     newest 1024 stay known; an older id answers 404, as after a restart.
//     The journal file still grows until a restart compacts it
//   - internal/journal   — write-ahead job journal: CRC-framed record log
//     (admit, one dispatched-batch per release wave carrying the confirms
//     since the job's last record, terminal), group commit through one
//     fsync site, torn-tail-tolerant replay that Open folds into per-job
//     state as it reads, snapshot compaction — the durability base for
//     crash-restart recovery
//   - internal/trace     — live probe/violation measurement (wall or virtual clock)
//   - internal/experiments — the experiment harness (E1..E10, E12..E15): E1,
//     E2, E6, E7 drive the live stack through the API client; E10 and
//     E13..E15 are analytic models on virtual time that construct no
//     engine or switch and take their fault decisions from Plan.Reverse,
//     verify.Plan and controller.Adoptable
//
// See README.md for the package tour, quickstart, and the Performance
// section (incremental-walk design, Gray-code/order-state duality,
// why the explorer keeps no memo table, and how to read the BENCH_*.json
// trajectory emitted by `make bench-json`). The benchmarks in
// bench_test.go regenerate every experiment table.
package tsu
