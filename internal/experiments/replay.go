package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tsu/internal/controller"
	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// The analytic model behind E13–E15 (see the package comment); E10
// shares its fleet and its latency shapes.

// PAM'15-shaped virtual-time latencies: controller→switch delivery,
// rule install, barrier reply, and the data-plane hop a decentralized
// peer ack pays.
var (
	ctrlDist    = netem.Uniform{Min: 0, Max: 3 * time.Millisecond}
	installDist = netem.Pareto{Scale: time.Millisecond, Alpha: 1.5, Cap: 20 * time.Millisecond}
	barrierDist = netem.Fixed(500 * time.Microsecond)
	peerDist    = netem.Uniform{Min: 100 * time.Microsecond, Max: 500 * time.Microsecond}
)

// roundTrip draws one controller-driven install: deliver, install, and
// the barrier reply.
func roundTrip(rng *rand.Rand) time.Duration {
	return ctrlDist.Sample(rng) + installDist.Sample(rng) + barrierDist.Sample(rng)
}

// ackTimeout is how long the controller waits for a confirmation
// before it aborts the update.
const ackTimeout = 100 * time.Millisecond

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// fleet builds the k-ary fat-tree and draws `policies` random
// valley-free reroutes on it (degenerate draws with nothing to update
// are skipped). One fleet is shared across an experiment's rates, so
// every rate faces the same reroutes.
func fleet(k, policies int, seed int64) (switches int, instances []*core.Instance, err error) {
	g := topo.FatTree(k)
	rng := rand.New(rand.NewSource(seed))
	for len(instances) < policies {
		ti, err := topo.RandomFatTreePolicy(rng, g)
		if err != nil {
			return 0, nil, err
		}
		if in := core.MustInstance(ti.Old, ti.New, 0); in.NumPending() > 0 {
			instances = append(instances, in)
		}
	}
	return g.NumNodes(), instances, nil
}

// outcome counts what one replayed update did; sweep sums them into one
// table row. Each experiment fills the counters of the faults it models.
type outcome struct {
	events     int // installs delivered: forward, undone by a rollback, resumed after a crash
	faults     int // confirmations lost
	aborts     int // updates a lost confirmation aborted
	lossUndone int // installs undone by those aborts' verified rollbacks
	violations int // reverse plans the verifier refused, after a loss or a crash
	stuck      int // installs such a refusal left in place

	peerAcks                     int // cross-switch releases of a decentralized run
	journalRecords, journalNodes int // batched dispatched records, and the nodes they carried

	boundaries, requeued, adopted, rolledBack int // crash boundaries, and how recovery resolved each
	crashUndone                               int // installs undone by those rollbacks

	makespan metrics.Histogram // forward runs, through the rollback when one aborted
	resume   metrics.Histogram // re-runs after a requeue and resumes after an adoption
}

func (o *outcome) add(s *outcome) {
	o.events += s.events
	o.faults += s.faults
	o.aborts += s.aborts
	o.lossUndone += s.lossUndone
	o.violations += s.violations
	o.stuck += s.stuck
	o.peerAcks += s.peerAcks
	o.journalRecords += s.journalRecords
	o.journalNodes += s.journalNodes
	o.boundaries += s.boundaries
	o.requeued += s.requeued
	o.adopted += s.adopted
	o.rolledBack += s.rolledBack
	o.crashUndone += s.crashUndone
	o.makespan.Merge(&s.makespan)
	o.resume.Merge(&s.resume)
}

// sweep replays every reroute of an experiment's rate tier on `workers`
// goroutines, each from its own seed, and sums the outcomes in reroute-
// index order, so the total is independent of the worker count.
func sweep(instances []*core.Instance, seed int64, tier, workers int, run func(in *core.Instance, seed int64) (outcome, error)) (outcome, error) {
	workers = max(workers, 1)
	samples := make([]outcome, len(instances))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < len(instances); p += workers {
				var err error
				if samples[p], err = run(instances[p], seed^int64(p+1)<<20^int64(tier+1)<<40); err != nil {
					errs[w] = fmt.Errorf("policy %d: %w", p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total outcome
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	for i := range samples {
		total.add(&samples[i])
	}
	return total, nil
}

// draw is one plan node's seeded inputs; a controller-driven run leaves
// start and hop zero.
type draw struct {
	start   time.Duration // earliest release (decentralized: partition-push arrival)
	latency time.Duration // release → confirm
	hop     time.Duration // extra delay of the acks this node sends to other switches
	lost    bool          // installed, but the confirmation and acks never arrive
}

// run is one ack-driven pass over a plan.
type run struct {
	releaseT   []time.Duration
	confirmT   []time.Duration
	dispatched []bool        // released before any abort
	abortAt    time.Duration // < 0: the run completed, at end
	end        time.Duration // last confirmation
}

// forward is the ack-driven pass, the only one: a node is released once
// every dependency has confirmed and the ack has reached it (plan nodes
// are topologically ordered, so one ascending sweep suffices); nodes in
// done are confirmed from the start and not released again. A lost
// confirmation aborts the run ackTimeout after that node's release; the
// engine stops releasing there, so the dispatched set is every node
// released up to the abort — down-closed by construction, its
// dependencies confirmed even earlier.
func forward(plan *core.Plan, node []draw, done []bool) run {
	nodes := plan.Nodes
	n := len(nodes)
	f := run{releaseT: make([]time.Duration, n), confirmT: make([]time.Duration, n), dispatched: make([]bool, n), abortAt: -1}
	reachable := make([]bool, n) // every dependency confirms eventually
	for i := range nodes {
		if i < len(done) && done[i] {
			reachable[i] = true
			continue
		}
		ready, t := true, node[i].start
		for _, d := range nodes[i].Deps {
			if !reachable[d] || node[d].lost {
				ready = false
				break
			}
			at := f.confirmT[d]
			if nodes[d].Switch != nodes[i].Switch {
				at += node[d].hop
			}
			t = max(t, at)
		}
		if !ready {
			continue
		}
		reachable[i] = true
		f.releaseT[i] = t
		f.dispatched[i] = true
		if node[i].lost {
			if f.abortAt < 0 || t+ackTimeout < f.abortAt {
				f.abortAt = t + ackTimeout
			}
			continue
		}
		f.confirmT[i] = t + node[i].latency
		f.end = max(f.end, f.confirmT[i])
	}
	for i := range nodes {
		f.dispatched[i] = f.dispatched[i] && (f.abortAt < 0 || f.releaseT[i] <= f.abortAt)
	}
	return f
}

// replay is one reroute's peacock plan, its per-node draws and the
// forward run they produce.
type replay struct {
	in    *core.Instance
	props core.Property // what the plan guarantees, and its rollbacks must
	plan  *core.Plan
	seed  int64
	rng   *rand.Rand
	node  []draw
	run
}

// newReplay takes every node's draw from the seeded rng in node-index
// order — the order of draws inside one node is the experiment's own —
// and runs the forward pass.
func newReplay(in *core.Instance, seed int64, node func(rng *rand.Rand) draw) (*replay, error) {
	plan, err := core.Peacock(in)
	if err != nil {
		return nil, err
	}
	r := &replay{in: in, props: plan.Guarantees, plan: plan, seed: seed, rng: rand.New(rand.NewSource(seed))}
	r.node = make([]draw, len(r.plan.Nodes))
	for i := range r.node {
		r.node[i] = node(r.rng)
	}
	r.run = forward(r.plan, r.node, nil)
	return r, nil
}

// reverse rolls an installed set back the way the engine's abort path
// does — Plan.Reverse, then verify.Plan on the result — and counts the
// undo installs delivered, or the violation and the installs left stuck
// when the verifier refuses (the returned plan is then nil). In this
// model a lost confirmation is a FlowMod that applied, so the dispatched
// set a loss hands here is exactly the set the engine's reconcile finds
// in effect.
func (r *replay) reverse(o *outcome, installed []bool, undone *int) (*core.Plan, error) {
	rev, _, err := r.plan.Reverse(installed)
	if err != nil {
		return nil, fmt.Errorf("reversing the installed set: %w", err)
	}
	if !verify.Plan(r.in, rev, r.props, verify.Options{}).OK() {
		o.violations++
		for _, in := range installed {
			if in {
				o.stuck++
			}
		}
		return nil, nil
	}
	*undone += len(rev.Nodes)
	o.events += len(rev.Nodes)
	return rev, nil
}

// crashSweep kills the controller of a completed forward run at every
// write-ahead boundary and counts what the restarted one does. records
// lists the dispatched records in journal append order, each with the
// plan nodes it carries. Boundary 0 is the crash before the first of
// them: the journal holds only the admit, recovery re-admits and the
// whole plan re-runs. Boundary b is the crash the instant record b-1
// lands: every journaled dispatch had left the wire and is applied on
// its switch, unless a per-boundary seeded wipe draw (node-index order
// over the journaled nodes) killed that switch with the controller and
// its rules with it; confirms that arrived before that instant are on
// record too. The decision is Engine.Recover's, by controller.Adoptable:
// adopt and resume forward from the surviving frontier, or reverse the
// journaled set.
func (r *replay) crashSweep(o *outcome, records [][]int, wipeRate float64) error {
	n := len(r.plan.Nodes)
	o.boundaries++
	o.requeued++
	o.events += n
	journaled, k, crashAt := make([]bool, n), 0, time.Duration(0)
	// The journaled set only grows, so one applied and one jconfirmed
	// slice serve every boundary: each is rewritten wherever it can be set.
	applied, jconfirmed, noAgent := make([]bool, n), make([]bool, n), make([]bool, n)
	for b, nodes := range records {
		for _, i := range nodes {
			journaled[i] = true
			crashAt = max(crashAt, r.releaseT[i])
		}
		k += len(nodes)
		o.boundaries++
		o.events += k
		wipeRng := rand.New(rand.NewSource(r.seed ^ int64(b+1)<<32))
		for i, j := range journaled {
			if j {
				applied[i] = !(wipeRng.Float64() < wipeRate)
				jconfirmed[i] = r.confirmT[i] < crashAt
			}
		}
		if !controller.Adoptable(r.plan, applied, jconfirmed, journaled, noAgent) {
			o.rolledBack++
			if _, err := r.reverse(o, journaled, &o.crashUndone); err != nil {
				return fmt.Errorf("boundary %d: %w", b+1, err)
			}
			continue
		}
		// Applied nodes are pre-confirmed at the restart instant; the rest
		// re-dispatch ack-driven, the way the run itself was dispatched.
		o.adopted++
		resumed := forward(r.plan, r.node, applied)
		for _, d := range resumed.dispatched {
			if d {
				o.events++
			}
		}
		o.resume.Record(resumed.end)
	}
	return nil
}
