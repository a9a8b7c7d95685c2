package core

import "fmt"

// GreedySLF schedules the update under strong loop freedom: in every
// reachable transient state the full rule graph — including rules at
// switches no longer reachable from the source — stays acyclic, and no
// packet is dropped. This is the conservative comparator for Peacock
// (PODC'15 shows strong loop freedom can require Θ(n) rounds where the
// relaxed variant needs O(log n)).
//
// Construction: per round, greedily grow a switch set while (a) the
// polynomial double-edge test proves every subset keeps the rule graph
// acyclic, and (b) every added switch's new successor is guaranteed a
// rule in all states of the round (no transient blackholes — only
// untouched new-path-only switches lack rules). New-path-only switches
// are unreachable until an on-path switch routes to them, so they are
// always eligible themselves.
//
// GreedySLF returns an error when it stalls: no pending switch is
// individually safe. For two-path updates a safe sequential order
// always exists for strong loop freedom (update the earliest pending
// switch of the current walk: its new edge cannot close a cycle with
// the final prefix — see Peacock's progress argument, which applies a
// fortiori here only when the landing is forward), but adversarial
// instances can stall the *global-graph* variant; callers fall back to
// Peacock or Optimal.
func GreedySLF(in *Instance) (*Schedule, error) {
	s := &Schedule{Algorithm: AlgoGreedySLF, Guarantees: NoBlackhole | StrongLoopFreedom | RelaxedLoopFreedom}
	b := in.newBatcher(s)
	pending := in.pendingIdx()
	for left := len(pending); left > 0; {
		// pick grows the round at the tail of b.pool: the trial is that
		// tail plus the candidate.
		start := len(b.pool)
		round := b.pick(pending, func(i int32) bool {
			if !in.hasGuaranteedRule(in.newSuccIdx[i], b.done) {
				return false // successor could still be rule-less mid-round
			}
			return in.RoundSafeStrongLF(b.done, append(b.pool[start:], in.nodeOf[i]))
		})
		if len(round) == 0 {
			return nil, fmt.Errorf("core: greedy-slf stalled with %d pending switches on %v", left, in)
		}
		left -= b.commit(round)
	}
	return s, nil
}
