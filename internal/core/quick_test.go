package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tsu/internal/topo"
)

// TestQuickSchedulerContract property-tests the full scheduler suite:
// for arbitrary generated instances, every scheduler's output is a
// valid partition of the pending set and exhaustively satisfies its
// declared guarantees in every reachable transient state.
func TestQuickSchedulerContract(t *testing.T) {
	check := func(seed int64, rawN uint8, withWaypoint bool) bool {
		n := 4 + int(rawN%10)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, n, withWaypoint)
		in := MustInstance(ti.Old, ti.New, ti.Waypoint)

		schedulers := []func(*Instance) (*Plan, error){
			Peacock,
			GreedySLF,
			func(in *Instance) (*Plan, error) { return Sequential(in, NoBlackhole|RelaxedLoopFreedom) },
		}
		if withWaypoint {
			schedulers = append(schedulers, WayUp)
		}
		for _, schedule := range schedulers {
			s, err := schedule(in)
			if err != nil {
				return false
			}
			if err := s.Validate(in); err != nil {
				return false
			}
			props := s.Guarantees
			done := in.NewState()
			for _, round := range s.Layers() {
				if len(round) > 16 {
					return true // exhaustive check infeasible; sizes here keep rounds small
				}
				if bruteForceRound(in, done, round, props) != 0 {
					return false
				}
				in.Mark(done, round...)
			}
			walk, outcome := in.Walk(done)
			if outcome != Reached || !walk.Equal(in.New) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWalkDeterminism: the forwarding walk is a pure function of
// the updated-set — repeated evaluation agrees, and the walk's length
// is bounded by the node count plus one (a revisit ends it).
func TestQuickWalkDeterminism(t *testing.T) {
	check := func(seed int64, rawN uint8, mask uint16) bool {
		n := 4 + int(rawN%12)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, n, false)
		in := MustInstance(ti.Old, ti.New, 0)
		st := in.NewState()
		for i, v := range in.Pending() {
			if mask&(1<<uint(i%16)) != 0 && i < 16 {
				in.Mark(st, v)
			}
		}
		w1, o1 := in.Walk(st)
		w2, o2 := in.Walk(st)
		if o1 != o2 || !w1.Equal(w2) {
			return false
		}
		return len(w1) <= len(in.Nodes())+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubsetClosure: round safety is downward closed — if the
// checker accepts a round, it accepts every subset of it (the property
// the optimal solver's pruning relies on).
func TestQuickSubsetClosure(t *testing.T) {
	check := func(seed int64, rawN uint8, sub uint16) bool {
		n := 4 + int(rawN%8)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, n, true)
		in := MustInstance(ti.Old, ti.New, ti.Waypoint)
		round := in.Pending()
		if len(round) == 0 || len(round) > 12 {
			return true
		}
		props := NoBlackhole | WaypointEnforcement | RelaxedLoopFreedom
		cex, exact := in.CheckRound(nil, round, props, 0)
		if !exact || cex != nil {
			return true // full round unsafe: nothing to check
		}
		var subset []topo.NodeID
		for i, v := range round {
			if i < 16 && sub&(1<<uint(i)) != 0 {
				subset = append(subset, v)
			}
		}
		subCex, subExact := in.CheckRound(nil, subset, props, 0)
		return subExact && subCex == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
