package core

import (
	"fmt"

	"tsu/internal/topo"
)

// Peacock schedules the update under relaxed (weak) loop freedom — the
// property the paper demonstrates for the Peacock algorithm (Ludwig,
// Marcinkowski, Schmid, PODC'15): in every reachable transient state
// the forwarding walk from the source is loop-free and reaches the
// destination; stale rules at switches no longer reachable from the
// source may disagree. The relaxation is what allows aggressive
// batching: far fewer rounds than strong loop freedom on adversarial
// instances.
//
// The reconstruction batches with two constructive
// lemmas evaluated against the current inter-round walk W:
//
//   - L1 (off-walk): pending switches not on W can all be flipped in
//     one round — flipping switches off the walk never changes the
//     walk, so under every subset they remain unreachable.
//   - L2 (forward landing): pending switches on W whose new-rule chain
//     (through switches already final at round start) lands strictly
//     later on W can be flipped in the same round — every subset turns
//     the walk into W with forward shortcuts, strictly monotone in
//     W-position, hence loop-free, and it still reaches the
//     destination.
//
// Round one flips all new-path-only switches (a special case of L1:
// the initial walk is the old path). Progress is guaranteed: the
// earliest pending switch on W always gains a forward landing once its
// chain is final, and any chain blocker is itself off-walk and flips in
// the current round.
func Peacock(in *Instance) (*Schedule, error) {
	s := &Schedule{Algorithm: AlgoPeacock, Guarantees: NoBlackhole | RelaxedLoopFreedom}
	b := in.newBatcher(s)
	pending := in.pendingIdx()

	// Round 1: all new-path-only switches. They are off the old-path
	// walk and nothing routes to them until an on-path switch flips in
	// a later round; afterwards every switch has a rule, so no
	// transient blackhole can occur in any later round.
	left := len(pending) - b.commit(b.pick(pending, in.newOnlyIdx))

	for left > 0 {
		if outcome := in.walkPositions(b.done, b.walkPos); outcome != Reached {
			walk, _ := in.Walk(b.done)
			return nil, fmt.Errorf("core: peacock invariant broken: inter-round walk %s (%v)", outcome, walk)
		}
		round := b.pick(pending, b.lemmaSafe)
		if len(round) == 0 {
			return nil, fmt.Errorf("core: peacock stalled with %d pending switches on %v", left, in)
		}
		left -= b.commit(round)
	}
	return s, nil
}

// batcher is the working state of a round scheduler: the schedule under
// construction, the switches its rounds have covered so far, and the
// scratch the batching lemmas read. Candidates are dense indices; a
// candidate is still to be scheduled exactly while it is not in done.
// Rounds are cut from one backing array sized for the whole pending
// set.
type batcher struct {
	in      *Instance
	s       *Schedule
	done    State
	walkPos []int32 // per node: position on the inter-round walk, -1 off it
	pool    []topo.NodeID
}

func (in *Instance) newBatcher(s *Schedule) *batcher {
	return &batcher{
		in:      in,
		s:       s,
		done:    in.NewState(),
		walkPos: make([]int32, len(in.nodeOf)),
		pool:    make([]topo.NodeID, 0, in.numPending),
	}
}

// pick returns, as a round, the candidates not yet done that ok admits,
// in candidate order; nil when there is none. Nothing is marked until
// the round is committed.
func (b *batcher) pick(cand []int32, ok func(i int32) bool) []topo.NodeID {
	start := len(b.pool)
	for _, i := range cand {
		if !b.done.Has(int(i)) && ok(i) {
			b.pool = append(b.pool, b.in.nodeOf[i])
		}
	}
	if len(b.pool) == start {
		return nil
	}
	return b.pool[start:len(b.pool):len(b.pool)]
}

// commit appends the round to the schedule, marks its switches done and
// returns its size. An empty round is not a round: nothing happens.
func (b *batcher) commit(round []topo.NodeID) int {
	if len(round) > 0 {
		b.s.Rounds = append(b.s.Rounds, round)
		b.in.Mark(b.done, round...)
	}
	return len(round)
}

// lemmaSafe reports whether pending switch i may flip in the current
// round by one of the two constructive lemmas, against the walk whose
// positions walkPos holds: it is off the walk (L1), or its new rule
// lands strictly later on the walk (L2).
func (b *batcher) lemmaSafe(i int32) bool {
	if b.walkPos[i] < 0 {
		return true // L1
	}
	land, ok := b.in.forwardLanding(i, b.done, b.walkPos)
	return ok && land > b.walkPos[i] // L2
}

// walkPositions follows the forwarding walk under done and records each
// visited node's position in pos (one entry per node, -1 off the walk).
func (in *Instance) walkPositions(done State, pos []int32) Outcome {
	for i := range pos {
		pos[i] = -1
	}
	for i, k := in.srcIdx, int32(0); ; k++ {
		if i == in.dstIdx {
			pos[i] = k
			return Reached
		}
		if pos[i] >= 0 {
			return Looped
		}
		pos[i] = k
		next, ok := in.nextHopIdx(i, done)
		if !ok {
			return Dropped
		}
		i = next
	}
}

// forwardLanding follows i's new rule through switches that are already
// final (done or never pending) until it hits a walk switch, and
// returns that switch's walk position. It fails when the chain crosses
// a still-pending off-walk switch — such a switch has no stable rule
// within the round, so L2 does not apply (the blocker itself is flipped
// via L1 this round, unblocking i for the next round).
func (in *Instance) forwardLanding(i int32, done State, walkPos []int32) (int32, bool) {
	cur := in.newSuccIdx[i]
	for steps := 0; steps <= len(in.New); steps++ {
		if pos := walkPos[cur]; pos >= 0 {
			return pos, true
		}
		// Off-walk: the chain may only continue over final switches,
		// whose sole rule is their new-path successor.
		if in.pendingBits.Has(int(cur)) && !done.Has(int(cur)) {
			return 0, false
		}
		// A final switch off the walk without a new-path successor
		// would be the destination — which is always on the walk.
		// Defensive: treat as no landing.
		if cur = in.newSuccIdx[cur]; cur < 0 {
			return 0, false
		}
	}
	return 0, false // defensive: new-path chains cannot cycle (path is simple)
}
