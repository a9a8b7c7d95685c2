package explore

import (
	"math/rand"
	"sort"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// FuzzExploreTrace fuzzes event-order permutations of random update
// instances and asserts the explorer's two safety contracts:
//
//  1. the per-event fabric walk never panics, for any delivery order
//     and any checked property set;
//  2. counterexample minimization is sound — replaying the minimized
//     trace still violates, the minimized trace is never longer than
//     the original, and it is 1-minimal (dropping any single event
//     makes the replay pass).
func FuzzExploreTrace(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{3, 1, 2}, uint8(0))
	f.Add(int64(7), uint8(12), []byte{0, 0, 0, 0}, uint8(3))
	f.Add(int64(42), uint8(9), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(15))
	f.Add(int64(-5), uint8(200), []byte{}, uint8(7))

	const allProps = core.NoBlackhole | core.WaypointEnforcement |
		core.RelaxedLoopFreedom | core.StrongLoopFreedom

	f.Fuzz(func(t *testing.T, seed int64, rawN uint8, orderKeys []byte, rawProps uint8) {
		n := 4 + int(rawN%12)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, n, true)
		in, err := core.NewInstance(ti.Old, ti.New, ti.Waypoint)
		if err != nil {
			t.Fatalf("generator produced an invalid instance: %v", err)
		}
		if in.NumPending() == 0 {
			return
		}
		props := core.Property(rawProps) & allProps
		if props == 0 {
			props = core.NoBlackhole | core.RelaxedLoopFreedom
		}

		// Any order of the pending set is a delivery order of the
		// one-shot plan: a single stage without an edge. Derive one
		// from the fuzzed key bytes (stable sort keeps it a permutation
		// whatever the bytes are).
		oneshot := core.OneShot(in)
		order := make([]int, len(oneshot.Nodes))
		for i := range order {
			order[i] = i
		}
		key := func(i int) byte {
			if len(orderKeys) == 0 {
				return 0
			}
			return orderKeys[i%len(orderKeys)]
		}
		sort.SliceStable(order, func(a, b int) bool { return key(a) < key(b) })
		replay := func(nodes []int, skip int) core.State {
			st := in.NewState()
			for j, i := range nodes {
				if j != skip {
					in.Mark(st, oneshot.Nodes[i].Switch)
				}
			}
			return st
		}

		// Replay event by event: the walk/check must never panic, on
		// this or any prefix state.
		for k := range order {
			st := replay(order[:k+1], -1)
			violated := in.CheckState(st, props)
			if walk, _ := in.Walk(st); len(walk) > in.NumNodes()+1 {
				t.Fatalf("walk longer than node count + 1: %v", walk)
			}
			if violated == 0 {
				continue
			}
			// A violating prefix: minimization must be sound.
			min, cex := in.Minimize(in.NewState(), oneshot, order[:k+1], props)
			if cex == nil || cex.Violated == 0 {
				t.Fatalf("minimized order of %v reports no violation", order[:k+1])
			}
			if len(min) > k+1 {
				t.Fatalf("minimization grew the order: %d -> %d events", k+1, len(min))
			}
			got := in.CheckState(replay(min, -1), props)
			if got == 0 {
				t.Fatalf("replaying minimized order %v is clean (original %v violated %s)", min, order[:k+1], violated)
			}
			if got != cex.Violated {
				t.Fatalf("minimize reported %s but replay violates %s", cex.Violated, got)
			}
			for i := range min {
				if in.CheckState(replay(min, i), props) != 0 {
					t.Fatalf("minimized order %v is not 1-minimal at event %d", min, i)
				}
			}
			return
		}
	})
}
