package core

import (
	"fmt"
	"strings"

	"tsu/internal/topo"
)

// Schedule partitions the switches needing updates into rounds. The
// controller installs round i's FlowMods concurrently, then exchanges
// barriers with every touched switch before starting round i+1, so the
// reachable transient states are exactly: all earlier rounds applied
// plus any subset of the current round.
type Schedule struct {
	// Rounds holds the switches updated per round, in execution order.
	Rounds [][]topo.NodeID

	// Algorithm names the scheduler that produced this schedule (one
	// of the registered names, see Names).
	Algorithm string

	// Guarantees is the property set the scheduler promises to hold in
	// every reachable transient state of this schedule.
	Guarantees Property

	// LoopFreedomCompromised is set by WayUp when waypoint enforcement
	// and loop freedom were jointly infeasible for the instance
	// (HotNets'14 shows such instances exist); waypoint enforcement is
	// preserved, transient loops may occur in the flagged rounds.
	LoopFreedomCompromised bool
}

// NumRounds returns the number of rounds.
func (s *Schedule) NumRounds() int { return len(s.Rounds) }

// NumUpdates returns the total number of switch updates.
func (s *Schedule) NumUpdates() int {
	total := 0
	for _, r := range s.Rounds {
		total += len(r)
	}
	return total
}

// Round returns the switches of round i (0-based).
func (s *Schedule) Round(i int) []topo.NodeID { return s.Rounds[i] }

// String renders the schedule compactly, e.g.
// "wayup[3 rounds: {7 8 9} {1 2 3} {4}]".
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d rounds:", s.Algorithm, len(s.Rounds))
	for _, r := range s.Rounds {
		b.WriteString(" {")
		for i, v := range r {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.String()
}

// Validate checks the structural contract between a schedule and its
// instance: rounds are non-empty, no switch appears twice, and the
// union of all rounds is exactly the instance's pending set.
func (s *Schedule) Validate(in *Instance) error {
	seen := in.NewState()
	for i, r := range s.Rounds {
		if len(r) == 0 {
			return fmt.Errorf("core: schedule round %d is empty", i)
		}
		for _, v := range r {
			if err := in.cover(seen, v, "scheduled"); err != nil {
				return err
			}
		}
	}
	if n := s.NumUpdates(); n != in.NumPending() {
		return fmt.Errorf("core: schedule covers %d of %d pending switches", n, in.NumPending())
	}
	return nil
}

// cover marks pending switch v in seen for a Validate; verb names what
// the caller did with it. A repeated switch or one that needs no update
// is an error.
func (in *Instance) cover(seen State, v topo.NodeID, verb string) error {
	i := int(in.idx(v))
	if seen.Has(i) {
		return fmt.Errorf("core: switch %d %s twice", v, verb)
	}
	if !in.pendingBits.Has(i) {
		return fmt.Errorf("core: switch %d %s but needs no update", v, verb)
	}
	seen.Set(i)
	return nil
}

// StateAfter returns the updated-set after the first n rounds have
// completed, as a State of the given instance.
func (s *Schedule) StateAfter(in *Instance, n int) State {
	st := in.NewState()
	for i := 0; i < n && i < len(s.Rounds); i++ {
		in.Mark(st, s.Rounds[i]...)
	}
	return st
}
