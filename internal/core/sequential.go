package core

import "fmt"

// Sequential schedules the update one switch per round under the given
// walk-based properties, picking at each step the first individually
// safe pending switch in new-path order (verified by the exact subset
// checker). This is the cautious-operator baseline — trivially correct,
// maximally slow — and the ablation for round batching: its round count
// equals the number of pending switches whenever it completes, versus
// Peacock's small constants.
//
// It fails when no individually safe switch exists (for waypoint-plus-
// loop-freedom combinations that are jointly infeasible).
func Sequential(in *Instance, props Property) (*Plan, error) {
	b := in.newBatcher()
	pending := in.pendingIdx()
	for left := len(pending); left > 0; left-- {
		round := b.firstSafe(pending, props)
		if len(round) == 0 {
			return nil, fmt.Errorf("core: sequential stalled with %d pending switches on %v (props %s)", left, in, props)
		}
		b.commit(round)
	}
	return Layered(AlgoSequential, props, b.rounds), nil
}
