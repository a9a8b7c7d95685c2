package core

import (
	"tsu/internal/topo"
)

// Outcome classifies the forwarding walk from the source under a fixed
// rule state.
type Outcome int

const (
	// Reached: the walk arrived at the destination.
	Reached Outcome = iota
	// Dropped: the walk hit a switch without a matching rule.
	Dropped
	// Looped: the walk revisited a switch (packets cycle forever).
	Looped
)

func (o Outcome) String() string {
	switch o {
	case Reached:
		return "reached"
	case Dropped:
		return "dropped"
	case Looped:
		return "looped"
	}
	return "unknown"
}

// nextHopIdx returns the switch i forwards to under the given
// updated-set, and false when i has no matching rule (packets are
// dropped) or i is the destination. Shift-and-mask only, no map lookups.
//
// Rule resolution: a pending switch uses its new rule once updated and
// its old rule (if any) before; a non-pending switch uses its only
// rule — the new successor when on the new path, otherwise the old one.
func (in *Instance) nextHopIdx(i int32, updated State) (int32, bool) {
	if i == in.dstIdx {
		return -1, false
	}
	if in.pendingBits.Has(int(i)) {
		if updated.Has(int(i)) {
			return in.newSuccIdx[i], true
		}
		n := in.oldSuccIdx[i]
		return n, n >= 0
	}
	if n := in.newSuccIdx[i]; n >= 0 {
		return n, true
	}
	n := in.oldSuccIdx[i]
	return n, n >= 0
}

// Walk follows the forwarding rules from the source under the given
// updated-set and returns the visited path together with its outcome.
// On a Looped outcome the returned path ends with the first repeated
// switch (included twice).
func (in *Instance) Walk(updated State) (topo.Path, Outcome) {
	path := make(topo.Path, 0, len(in.nodeOf)+1)
	var seenBuf [8]uint64
	var seen State
	if in.words <= len(seenBuf) {
		seen = State(seenBuf[:in.words])
	} else {
		seen = make(State, in.words)
	}
	i := in.srcIdx
	for {
		path = append(path, in.nodeOf[i])
		if i == in.dstIdx {
			return path, Reached
		}
		if seen.Has(int(i)) {
			return path, Looped
		}
		seen.Set(int(i))
		next, ok := in.nextHopIdx(i, updated)
		if !ok {
			return path, Dropped
		}
		i = next
	}
}

// CheckState evaluates the requested properties in a single rule state
// and returns the subset of props violated there. StrongLoopFreedom is
// checked over the full rule graph; the walk-based properties over the
// forwarding walk from the source.
func (in *Instance) CheckState(updated State, props Property) Property {
	var violated Property
	path, outcome := in.Walk(updated)
	if props.Has(NoBlackhole) && outcome == Dropped {
		violated |= NoBlackhole
	}
	if props.Has(RelaxedLoopFreedom) && outcome == Looped {
		violated |= RelaxedLoopFreedom
	}
	if props.Has(WaypointEnforcement) && in.Waypoint != 0 && outcome == Reached {
		if !path[:len(path)-1].Contains(in.Waypoint) {
			violated |= WaypointEnforcement
		}
	}
	if props.Has(StrongLoopFreedom) && in.ruleCycle(updated, nil, nil) {
		violated |= StrongLoopFreedom
	}
	return violated
}
