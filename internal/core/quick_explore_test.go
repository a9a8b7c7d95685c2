// Extends quick_test.go with the adversarial-interleaving property:
// it lives in the external test package because it pits every
// registered scheduler against internal/explore, which imports core.
package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tsu/internal/core"
	"tsu/internal/explore"
	"tsu/internal/topo"
)

// TestQuickExploreSchedulerInterleavings property-tests the scheduler
// suite against the exhaustive interleaving explorer: for random small
// instances, every registered scheduler's output either survives *all*
// FlowMod delivery interleavings the explorer enumerates, or its
// property contract (Plan.Guarantees) correctly declares the
// violated property absent — i.e. the explorer may only ever break
// properties the scheduler never promised.
func TestQuickExploreSchedulerInterleavings(t *testing.T) {
	allProps := core.NoBlackhole | core.WaypointEnforcement |
		core.RelaxedLoopFreedom | core.StrongLoopFreedom
	check := func(seed int64, rawN uint8, withWaypoint bool) bool {
		n := 4 + int(rawN%9)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, n, withWaypoint)
		in := core.MustInstance(ti.Old, ti.New, ti.Waypoint)
		if in.NumPending() == 0 {
			return true
		}
		props := allProps
		if in.Waypoint == 0 {
			props &^= core.WaypointEnforcement
		}
		for _, name := range core.Names() {
			scheduler := core.MustScheduler(name)
			if !scheduler.Applicable(in) {
				continue
			}
			s, err := scheduler.Plan(in, 0)
			if err != nil {
				// A scheduler may decline an instance (e.g. jointly
				// infeasible property targets); declining is not a
				// contract violation.
				continue
			}
			if err := s.Validate(in); err != nil {
				t.Logf("%s produced invalid schedule on %v: %v", name, in, err)
				return false
			}
			// Check the full property lattice, exhaustively: rounds at
			// these sizes always fit MaxExhaustive.
			rep, err := explore.Plan(in, s, explore.Options{Props: props, MaxExhaustive: 14})
			if err != nil {
				t.Logf("explore failed on %s %v: %v", name, in, err)
				return false
			}
			if !rep.Exhaustive() {
				t.Logf("%s round exceeded the exhaustive budget on n=%d", name, n)
				return false
			}
			for _, rr := range rep.Rounds {
				if rr.Violation == nil {
					continue
				}
				// The adversary broke something: the scheduler's
				// contract must not have promised it.
				if broken := rr.Violation.Violated & s.Guarantees; broken != 0 {
					t.Logf("%s guarantees %s but the adversary broke %s on %v: %v",
						name, s.Guarantees, broken, in, rr.Violation)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(0x5EED)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
