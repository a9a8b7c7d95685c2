package core

import (
	"fmt"
	"math/bits"
	"slices"

	"tsu/internal/topo"
)

// MaxOptimalPending bounds the instance size the exact solvers accept
// by default. Minimal-round search explores O(3^k) (state, round)
// pairs for k pending switches.
const MaxOptimalPending = 12

// MaxFeasiblePending bounds the sequential-feasibility decision, which
// memoises over 2^k done-sets.
const MaxFeasiblePending = 20

// Optimal computes a layered plan with the provably minimal number of
// rounds satisfying props in every reachable transient state, via
// breadth-first search over done-sets with exact round-safety as the
// transition oracle. It returns an error when the instance exceeds
// MaxOptimalPending or when no schedule satisfies props at all (for
// example, waypoint enforcement combined with loop freedom is not
// always jointly feasible — HotNets'14).
//
// Safety is downward closed (a violating subset of a round is a
// violating subset of every superset round), which the search exploits:
// any round containing an individually unsafe switch is skipped without
// re-checking.
func Optimal(in *Instance, props Property) (*Plan, error) {
	pending := in.Pending()
	k := len(pending)
	if k > MaxOptimalPending {
		return nil, fmt.Errorf("core: optimal solver limited to %d pending switches, instance has %d", MaxOptimalPending, k)
	}
	maskNodes := func(mask uint32) []topo.NodeID {
		out := make([]topo.NodeID, 0, bits.OnesCount32(mask))
		for i, v := range pending {
			if mask&(1<<uint(i)) != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	maskState := func(mask uint32) State {
		st := in.NewState()
		for i, v := range pending {
			if mask&(1<<uint(i)) != 0 {
				in.Mark(st, v)
			}
		}
		return st
	}
	full := uint32(1)<<uint(k) - 1
	type prev struct {
		state uint32
		round uint32
	}
	parent := make(map[uint32]prev, 1<<uint(k))
	visited := map[uint32]bool{0: true}
	frontier := []uint32{0}
	for len(frontier) > 0 && !visited[full] {
		var next []uint32
		for _, m := range frontier {
			done := maskState(m)
			rem := full &^ m
			// Downward closure: precompute unsafe singletons at m.
			var unsafe uint32
			for i := 0; i < k; i++ {
				b := uint32(1) << uint(i)
				if rem&b == 0 {
					continue
				}
				cex, exact := in.CheckRound(done, maskNodes(b), props, 0)
				if !exact || cex != nil {
					unsafe |= b
				}
			}
			for sub := rem; sub > 0; sub = (sub - 1) & rem {
				if sub&unsafe != 0 || visited[m|sub] {
					continue
				}
				if bits.OnesCount32(sub) > 1 {
					cex, exact := in.CheckRound(done, maskNodes(sub), props, 0)
					if !exact || cex != nil {
						continue
					}
				}
				to := m | sub
				visited[to] = true
				parent[to] = prev{state: m, round: sub}
				next = append(next, to)
			}
		}
		frontier = next
	}
	if !visited[full] {
		return nil, fmt.Errorf("core: no schedule satisfies %s for %v", props, in)
	}
	var rounds [][]topo.NodeID
	for m := full; m != 0; {
		p := parent[m]
		rounds = append(rounds, maskNodes(p.round))
		m = p.state
	}
	slices.Reverse(rounds)
	return Layered(AlgoOptimal, props, rounds), nil
}

// Feasible decides whether any schedule satisfies props in every
// reachable transient state. A batched schedule is safe iff its
// singleton sequentialisation is safe (every prefix state of the
// sequentialisation is a subset state of the batched schedule), so the
// decision reduces to the existence of a safe sequential update order,
// searched with memoisation over done-sets.
func Feasible(in *Instance, props Property) (bool, error) {
	pending := in.Pending()
	k := len(pending)
	if k > MaxFeasiblePending {
		return false, fmt.Errorf("core: feasibility decision limited to %d pending switches, instance has %d", MaxFeasiblePending, k)
	}
	if k == 0 {
		return true, nil
	}
	full := uint32(1)<<uint(k) - 1
	memo := make(map[uint32]bool, 1<<uint(k))
	var canFinish func(m uint32) bool
	canFinish = func(m uint32) bool {
		if m == full {
			return true
		}
		if r, ok := memo[m]; ok {
			return r
		}
		memo[m] = false // cycle guard; overwritten below
		done := in.NewState()
		for i, v := range pending {
			if m&(1<<uint(i)) != 0 {
				in.Mark(done, v)
			}
		}
		ok := false
		for i, v := range pending {
			b := uint32(1) << uint(i)
			if m&b != 0 {
				continue
			}
			cex, exact := in.CheckRound(done, []topo.NodeID{v}, props, 0)
			if exact && cex == nil && canFinish(m|b) {
				ok = true
				break
			}
		}
		memo[m] = ok
		return ok
	}
	return canFinish(0), nil
}
