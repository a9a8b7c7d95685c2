package core

import (
	"fmt"

	"tsu/internal/topo"
)

// WayUp schedules the update under waypoint enforcement — the paper's
// "transiently secure" property (after Ludwig, Rost, Foucard, Schmid,
// HotNets'14): in every reachable transient state, any packet that
// reaches the destination has traversed the waypoint, and no packet is
// dropped. WayUp additionally preserves relaxed loop freedom whenever
// that is jointly feasible; HotNets'14 proves joint feasibility cannot
// always be achieved, in which case the schedule keeps waypoint
// enforcement and sets LoopFreedomCompromised.
//
// The reconstruction orders updates in three phases by
// position relative to the waypoint w. Write O1/O2 for strictly
// before/after w on the old path and N1/N2 for the same on the new
// path. The invariant is that packets which have not yet crossed w can
// only ever sit on rules that keep them in the pre-waypoint region:
//
//	Phase A — every pending switch at or after w on the old path
//	  (w itself, N1∩O2, N2∩O2) plus all new-path-only switches.
//	  Throughout this phase the walk from the source still follows the
//	  old prefix (no O1 switch changes), so packets reach these
//	  switches only after crossing w, or not at all; any rule they find
//	  there leads onward to the destination or back across the new
//	  prefix through w again. Safe for every subset.
//
//	Phase B — O1∩N1: switches before w on both paths. Their new rules
//	  steer pre-waypoint packets onto the new prefix, whose switches
//	  are all final after phase A; every rule reachable before w (old
//	  rules along O1, final rules along N1) leads to w before anything
//	  post-waypoint. Safe for every subset.
//
//	Phase C — the dangerous set O1∩N2: before w on the old path,
//	  after w on the new path. Updating such a switch earlier would let
//	  a packet still travelling the old prefix jump to the post-
//	  waypoint suffix, bypassing w. After phase B the source's walk is
//	  the final new prefix up to w, so these switches are no longer
//	  reachable by pre-waypoint packets and any batching is safe for
//	  waypoint enforcement.
//
// Within each phase, rounds are batched with the same constructive
// loop-freedom lemmas Peacock uses (waypoint safety is closed under
// sub-partitioning); when even single-switch rounds would loop, the
// phase is flushed (new-path-only switches first, so no transient
// blackhole appears) and the schedule is flagged. Worst-case round
// count is O(n), matching the HotNets'14 lower bound for waypoint
// enforcement.
func WayUp(in *Instance) (*Plan, error) {
	if in.Waypoint == 0 {
		return nil, fmt.Errorf("core: wayup requires a waypoint in %v", in)
	}
	wOld, wNew := in.oldPos[in.wpIdx], in.newPos[in.wpIdx]
	b := in.newBatcher()

	var phaseA, phaseB, phaseC []int32
	for _, i := range in.pendingIdx() { // new-path order, deterministic
		switch {
		case in.newOnlyIdx(i) || in.oldPos[i] >= wOld:
			phaseA = append(phaseA, i)
		case in.newPos[i] < wNew:
			phaseB = append(phaseB, i)
		default:
			phaseC = append(phaseC, i)
		}
	}

	compromised := false
	for _, phase := range [][]int32{phaseA, phaseB, phaseC} {
		compromised = b.appendLoopFree(phase) || compromised
	}

	guarantees := NoBlackhole | WaypointEnforcement
	if !compromised {
		guarantees |= RelaxedLoopFreedom
	}
	p := Layered(AlgoWayUp, guarantees, b.rounds)
	p.LoopFreedomCompromised = compromised
	return p, nil
}

// appendLoopFree partitions nodes into rounds that keep the forwarding
// walk loop-free and blackhole-free in every reachable state and
// appends them to the rounds. When even single-switch rounds would
// loop (waypoint enforcement and loop freedom jointly infeasible), the
// remaining switches are flushed — new-path-only switches first so no
// transient blackhole appears — and the function reports the
// compromise.
//
// Batch construction mirrors Peacock's constructive lemmas (off-walk
// and forward-landing sets, see peacock.go); when the lemmas yield
// nothing it falls back to individually verified switches via the
// exact subset checker.
func (b *batcher) appendLoopFree(nodes []int32) (compromised bool) {
	in := b.in
	for left := len(nodes); left > 0; {
		var round []topo.NodeID
		if in.walkPositions(b.done, b.walkPos) == Reached {
			round = b.pick(nodes, b.lemmaSafe)
		}
		if len(round) == 0 {
			// Lemma-based batching found nothing (or the walk already
			// loops because an earlier phase was compromised). Try
			// individually verified single-switch rounds.
			round = b.firstSafe(nodes, NoBlackhole|RelaxedLoopFreedom)
		}
		if len(round) == 0 {
			// Loop freedom is infeasible from here; preserve waypoint
			// enforcement and blackhole freedom and flush the
			// remainder.
			b.commit(b.pick(nodes, in.newOnlyIdx))
			b.commit(b.pick(nodes, func(int32) bool { return true }))
			return true
		}
		left -= b.commit(round)
	}
	return false
}

// firstSafe returns, as a one-switch round, the first candidate not yet
// done that the exact subset checker proves individually safe for
// props; nil when there is none.
func (b *batcher) firstSafe(cand []int32, props Property) []topo.NodeID {
	for _, i := range cand {
		if b.done.Has(int(i)) {
			continue
		}
		if cex, exact := b.in.CheckRound(b.done, b.in.nodeOf[i:i+1], props, 0); exact && cex == nil {
			b.pool = append(b.pool, b.in.nodeOf[i])
			return b.pool[len(b.pool)-1 : len(b.pool) : len(b.pool)]
		}
	}
	return nil
}
