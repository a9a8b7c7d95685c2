package core

import (
	"math/bits"

	"tsu/internal/topo"
)

// State is the set of switches whose update has taken effect, stored as
// a dense bitset with one bit per node of the owning Instance (bit i
// corresponds to the instance's i-th switch by ID). States are created through
// Instance.NewState / Instance.StateOf and are only meaningful for the
// instance that produced them. A nil State is the empty set.
//
// All operations are shift-and-mask on uint64 words: membership is one
// load, cloning is a copy, and the hot paths (Walk, CheckRound,
// RoundSafeStrongLF) never touch a map or allocate per step.
type State []uint64

// Has reports whether bit i is set. Out-of-range bits (including any
// query against a nil State) read as unset.
func (s State) Has(i int) bool {
	w := uint(i) >> 6
	return int(w) < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i. The State must have been allocated wide enough
// (Instance.NewState always is).
func (s State) Set(i int) { s[uint(i)>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s State) Clear(i int) { s[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// Toggle flips bit i — a delivery: set on the way forward, cleared in
// a rollback.
func (s State) Toggle(i int) { s[uint(i)>>6] ^= 1 << (uint(i) & 63) }

// Count returns the number of set bits.
func (s State) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewState returns an empty State sized for the instance's node set.
func (in *Instance) NewState() State { return make(State, in.words) }

// CloneState returns a full-width copy of s; a nil s yields an empty
// state (the result is always writable via Set).
func (in *Instance) CloneState(s State) State {
	c := make(State, in.words)
	copy(c, s)
	return c
}

// StateOf builds a State containing the given switches. Switches not on
// either path are ignored.
func (in *Instance) StateOf(nodes ...topo.NodeID) State {
	s := in.NewState()
	in.Mark(s, nodes...)
	return s
}

// Mark adds the given switches to the state. Switches not on either
// path are ignored.
func (in *Instance) Mark(s State, nodes ...topo.NodeID) {
	for _, v := range nodes {
		if i := in.idx(v); i >= 0 {
			s.Set(int(i))
		}
	}
}

// Without returns a copy of s with every switch of p cleared. An undo
// stage p run from s reaches (s∖p) ∪ (p∖U) for every U ⊆ p it has
// undone: exactly the states of a forward round of p over s∖p.
func (in *Instance) Without(s State, p *Plan) State {
	c := in.CloneState(s)
	for _, nd := range p.Nodes {
		if i := in.idx(nd.Switch); i >= 0 {
			c.Clear(int(i))
		}
	}
	return c
}

// Updated reports whether switch v is in the state.
func (in *Instance) Updated(s State, v topo.NodeID) bool {
	return s.Has(int(in.idx(v)))
}

// StateNodes lists the switches in the state, ascending by ID.
func (in *Instance) StateNodes(s State) []topo.NodeID {
	out := make([]topo.NodeID, 0, s.Count())
	for i, v := range in.nodeOf {
		if s.Has(i) {
			out = append(out, v)
		}
	}
	return out
}

// NumNodes returns the number of switches on the union of both paths.
func (in *Instance) NumNodes() int { return len(in.nodeOf) }

// NodeIndex returns v's dense index in [0, NumNodes), or -1 when v lies
// on neither path.
func (in *Instance) NodeIndex(v topo.NodeID) int { return int(in.idx(v)) }
