package controller

import (
	"errors"
	"net"
	"net/http"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/synth"
	"tsu/internal/topo"
)

// plannedUpdate is one validated batch entry with its execution plan.
// Algo is "two-phase" (DAG nil) or a registry name; Props is the
// entry's requested property set (0 when unset), on the dry-run paths
// the set they check (see planDryRun). DAG is the plan every
// endpoint works on — what /v1/verify and /v1/explore check is, node
// for node, what POST /v1/updates hands the engine: the scheduler's
// layered plan by default, its sparse DAG when the entry asked for plan
// "sparse". Layered is the layered plan the wire responses report as
// "rounds" (see wireRounds) — DAG itself unless DAG is sparse, whose
// layers are not the scheduler's rounds.
type plannedUpdate struct {
	In      *core.Instance
	Match   openflow.Match
	Algo    string
	DAG     *core.Plan
	Layered *core.Plan
	Props   core.Property
	Mode    ExecMode
}

// planUpdate validates one FlowUpdate and computes its plan. All
// request validation the engine used to discover mid-job lives here:
// malformed paths, off-path waypoints, bad matches and unknown
// algorithms are rejected before anything is admitted.
//
// forVerify relaxes the property contract: on the execution path a
// scheduler that cannot guarantee the requested properties is a 400,
// but on the dry-run verify path those properties are exactly what the
// caller wants checked (reporting what a baseline would break is the
// endpoint's purpose).
func planUpdate(u api.FlowUpdate, forVerify bool) (*plannedUpdate, error) {
	ip := net.ParseIP(u.NWDst)
	if ip == nil || ip.To4() == nil {
		return nil, errf(http.StatusBadRequest, api.CodeInvalidMatch, "nw_dst %q is not an IPv4 address", u.NWDst)
	}
	in, err := core.NewInstance(api.ToPath(u.OldPath), api.ToPath(u.NewPath), topo.NodeID(u.Waypoint))
	if err != nil {
		code := api.CodeInvalidPath
		if errors.Is(err, core.ErrWaypoint) {
			code = api.CodeInvalidWaypoint
		}
		return nil, errf(http.StatusBadRequest, code, "invalid update: %v", err)
	}
	props, err := core.ParseProperties(u.Properties)
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeUnknownProperty, "%v", err)
	}
	switch u.Plan {
	case "", "layered", "sparse":
	default:
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest,
			"plan %q unknown (want layered or sparse)", u.Plan)
	}
	mode, ok := ParseExecMode(u.Mode)
	if !ok {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest,
			"mode %q unknown (want controller or decentralized)", u.Mode)
	}
	p := &plannedUpdate{In: in, Match: openflow.ExactNWDst(ip), Algo: u.Algorithm, Props: props, Mode: mode}
	if u.Algorithm == twoPhaseAlgorithm {
		// Per-packet consistency: every packet rides exactly one
		// policy end to end, which subsumes all four per-flow
		// transient properties — any request is satisfied.
		return p, nil
	}
	if u.Algorithm != "" {
		if _, err := core.Lookup(u.Algorithm); err != nil {
			return nil, errf(http.StatusBadRequest, api.CodeUnknownAlgorithm, "%v", err)
		}
	}
	if u.Algorithm == core.AlgoSynth {
		return planSynthUpdate(p, in, u, props)
	}
	layered, err := core.PlanByName(in, u.Algorithm, props, false)
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed, "scheduling failed: %v", err)
	}
	// On the execution path, requested properties are a contract, not
	// a hint: schedulers with fixed guarantees (peacock, oneshot, ...)
	// ignore the props argument, so reject rather than execute an
	// update that does not preserve what the client demanded.
	if !forVerify && props != 0 && !layered.Guarantees.Has(props) {
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed,
			"scheduler %q guarantees %s, which does not cover the requested %s",
			layered.Algorithm, layered.Guarantees, props)
	}
	p.Algo = layered.Algorithm
	p.Layered, p.DAG = layered, layered
	// On request, the sparse DAG is derived from the plan just
	// computed — never re-running the scheduler, so the reported rounds
	// and the executed DAG come from the same run. SparsePlan returns a
	// plan it cannot prune unchanged; PlanShape.Sparse reports what ran.
	if u.Plan == "sparse" {
		p.DAG = core.SparsePlan(in, layered)
	}
	return p, nil
}

// planSynthUpdate plans an update through the CEGIS synthesizer,
// honoring the per-request refinement budget: a positive SynthBudget
// runs pure synthesis and surfaces a budget overrun as a structured
// 400/CodeSynthBudget carrying the best-so-far plan shape; zero runs
// the heuristic-backed portfolio with server defaults. The synthesized
// sparse DAG executes directly when the entry asked for plan "sparse";
// the layered view of its layers otherwise.
func planSynthUpdate(p *plannedUpdate, in *core.Instance, u api.FlowUpdate, props core.Property) (*plannedUpdate, error) {
	if u.SynthBudget < 0 {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "synth_budget %d is negative", u.SynthBudget)
	}
	sprops := synth.DefaultProps(in, props)
	var (
		plan *core.Plan
		err  error
	)
	if u.SynthBudget > 0 {
		plan, _, err = synth.Synthesize(in, sprops, synth.Options{Budget: u.SynthBudget})
	} else {
		plan, _, err = synth.Plan(in, sprops, synth.Options{})
	}
	if err != nil {
		var be *synth.BudgetError
		if errors.As(err, &be) {
			he := errf(http.StatusBadRequest, api.CodeSynthBudget,
				"synthesis budget of %d refinements exceeded after %d counterexamples", be.Budget, be.Transcript.Iters)
			he.plan = planShape(be.Best)
			return nil, he
		}
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed, "synthesis failed: %v", err)
	}
	// The synthesized DAG itself is the artifact: it executes as-is on
	// request, its layered view otherwise.
	p.Algo, p.Layered, p.DAG = core.AlgoSynth, plan.LayeredView(), plan
	if u.Plan != "sparse" {
		p.DAG = p.Layered
	}
	return p, nil
}

// planShape converts a plan's DAG shape to the wire form.
func planShape(p *core.Plan) *api.PlanShape {
	if p == nil {
		return nil
	}
	return shapeOf(p, p.NodeLayers()).wire()
}

// wireRounds renders the rounds of a layered plan (see
// core.Plan.OpensRound) in the wire form, every round a window of one
// backing array; "rounds" is never null.
func wireRounds(p *core.Plan) [][]uint64 {
	n := 0
	for i := range p.Nodes {
		if p.OpensRound(i) {
			n++
		}
	}
	rounds, ids, lo := make([][]uint64, 0, n), make([]uint64, len(p.Nodes)), 0
	for i, nd := range p.Nodes {
		if p.OpensRound(i) {
			rounds, lo = append(rounds, nil), i
		}
		ids[i] = uint64(nd.Switch)
		rounds[len(rounds)-1] = ids[lo : i+1]
	}
	return rounds
}

// planBatch validates a whole batch atomically: the first invalid
// entry rejects the batch and nothing is submitted.
func planBatch(req api.BatchUpdateRequest, forVerify bool) ([]*plannedUpdate, error) {
	if req.Interval < 0 {
		return nil, errf(http.StatusBadRequest, api.CodeInvalidInterval, "interval %d ms is negative", req.Interval)
	}
	if len(req.Updates) == 0 {
		return nil, errf(http.StatusBadRequest, api.CodeEmptyBatch, "batch contains no updates")
	}
	plans := make([]*plannedUpdate, len(req.Updates))
	for i, u := range req.Updates {
		p, err := planUpdate(u, forVerify)
		if err != nil {
			if he, ok := err.(*handlerError); ok {
				wrapped := errf(he.status, he.code, "updates[%d]: %s", i, he.msg)
				wrapped.plan = he.plan
				return nil, wrapped
			}
			return nil, err
		}
		plans[i] = p
	}
	return plans, nil
}

// planDryRun plans the batch of a /v1/verify or /v1/explore request
// (verb names which) and sets each entry's Props to the property set
// the dry run checks. Precedence: the entry's own properties, then the
// request-level set, then the plan's guarantees; a plan that guarantees
// nothing (one-shot) is checked against what the consistent schedulers
// provide, so the dry run shows what would break. A two-phase entry has
// no plan to check and rejects the batch.
func planDryRun(updates []api.FlowUpdate, properties []string, verb string) ([]*plannedUpdate, error) {
	plans, err := planBatch(api.BatchUpdateRequest{Updates: updates}, true)
	if err != nil {
		return nil, err
	}
	reqProps, err := core.ParseProperties(properties)
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeUnknownProperty, "%v", err)
	}
	for i, p := range plans {
		if p.DAG == nil {
			return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed,
				"updates[%d]: two-phase has no round schedule to %s", i, verb)
		}
		if p.Props == 0 {
			p.Props = reqProps
		}
		if p.Props == 0 {
			p.Props = p.DAG.Guarantees
		}
		if p.Props == 0 {
			p.Props = p.In.NaturalProps()
		}
	}
	return plans, nil
}
