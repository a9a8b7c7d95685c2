package core

import (
	"errors"
	"fmt"
	"slices"

	"tsu/internal/topo"
)

// ErrWaypoint marks waypoint-placement failures: the requested
// waypoint is not strictly interior to both paths. API layers match it
// with errors.Is to classify the rejection.
var ErrWaypoint = errors.New("waypoint not strictly interior")

// Instance is a single-policy update problem: replace the old path with
// the new path, both simple paths from the same source to the same
// destination. A non-zero Waypoint must lie strictly inside both paths;
// it marks a middlebox (firewall, IDS) that packets must never bypass.
//
// Every switch on the old path initially carries a rule forwarding to
// its old-path successor. The update installs, at every switch on the
// new path except the destination, a rule forwarding to its new-path
// successor. Switches whose old and new successors coincide need no
// FlowMod and are treated as already final.
//
// There is one index: every switch of Old ∪ New gets a dense index in
// [0, NumNodes), ascending by switch ID, and every fact about a switch
// — successors, path positions, whether it needs a FlowMod — is an
// array or bitset entry at that index. Walk, CheckState, the round
// checkers and the schedulers run on indices and State bitsets only;
// the NodeID-typed methods (OldSucc, OnNew, NewOnly, ...) are
// one idx lookup — a binary search over nodeOf, O(log NumNodes), no
// hashing — on top of the same arrays.
//
// An Instance is immutable after construction and safe for concurrent
// use; the parallel verifier relies on this.
type Instance struct {
	Old      topo.Path
	New      topo.Path
	Waypoint topo.NodeID // 0 when the policy has no waypoint

	nodeOf      []topo.NodeID // index -> switch, ascending
	oldSuccIdx  []int32       // -1 when v has no old-path successor
	newSuccIdx  []int32       // -1 when v has no new-path successor
	oldPos      []int32       // position on Old, -1 when off it
	newPos      []int32       // position on New, -1 when off it
	pendingBits State         // switches that need a FlowMod
	numPending  int
	srcIdx      int32
	dstIdx      int32
	wpIdx       int32 // -1 when the policy has no waypoint
	words       int   // State words needed for NumNodes bits
}

// NewInstance validates and indexes an update problem. It returns an
// error when either path is malformed, the endpoints disagree, or a
// requested waypoint is not strictly interior to both paths.
func NewInstance(old, newPath topo.Path, waypoint topo.NodeID) (*Instance, error) {
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("core: old path: %w", err)
	}
	if err := newPath.Validate(); err != nil {
		return nil, fmt.Errorf("core: new path: %w", err)
	}
	if old.Src() != newPath.Src() || old.Dst() != newPath.Dst() {
		return nil, fmt.Errorf("core: endpoint mismatch: old %v vs new %v", old, newPath)
	}
	if waypoint != 0 {
		for _, p := range [...]topo.Path{old, newPath} {
			i := p.Index(waypoint)
			if i <= 0 || i >= len(p)-1 {
				return nil, fmt.Errorf("core: waypoint %d not strictly interior to path %v: %w", waypoint, p, ErrWaypoint)
			}
		}
	}
	// One NodeID array holds the two path copies and, behind them, the
	// sorted union; one int32 array the four per-node tables.
	lo, ln := len(old), len(newPath)
	ids := make([]topo.NodeID, 2*(lo+ln))
	in := &Instance{
		Old:      ids[:lo:lo],
		New:      ids[lo : lo+ln : lo+ln],
		Waypoint: waypoint,
	}
	copy(in.Old, old)
	copy(in.New, newPath)
	union := ids[lo+ln:]
	copy(union, ids[:lo+ln])
	slices.Sort(union)
	in.nodeOf = slices.Compact(union)
	n := len(in.nodeOf)
	in.nodeOf = in.nodeOf[:n:n]

	tables := make([]int32, 4*n)
	for i := range tables {
		tables[i] = -1
	}
	in.oldSuccIdx, in.newSuccIdx = tables[:n:n], tables[n:2*n:2*n]
	in.oldPos, in.newPos = tables[2*n:3*n:3*n], tables[3*n:]
	in.index(in.Old, in.oldPos, in.oldSuccIdx)
	in.index(in.New, in.newPos, in.newSuccIdx)

	in.words = (n + 63) / 64
	in.pendingBits = in.NewState()
	for i, next := range in.newSuccIdx {
		if next >= 0 && next != in.oldSuccIdx[i] {
			in.pendingBits.Set(i)
			in.numPending++
		}
	}
	in.srcIdx = in.idx(in.Old.Src())
	in.dstIdx = in.idx(in.Old.Dst())
	in.wpIdx = -1
	if waypoint != 0 {
		in.wpIdx = in.idx(waypoint)
	}
	return in, nil
}

// index records path p's positions and successors in the per-node
// tables.
func (in *Instance) index(p topo.Path, pos, succ []int32) {
	prev := int32(-1)
	for k, v := range p {
		i := in.idx(v)
		pos[i] = int32(k)
		if prev >= 0 {
			succ[prev] = i
		}
		prev = i
	}
}

// idx returns v's dense index, or -1 when v lies on neither path: a
// binary search over the sorted nodeOf.
func (in *Instance) idx(v topo.NodeID) int32 {
	if i, ok := slices.BinarySearch(in.nodeOf, v); ok {
		return int32(i)
	}
	return -1
}

// at is idx for table reads: tbl[idx(v)], or -1 when v lies on neither
// path.
func (in *Instance) at(tbl []int32, v topo.NodeID) int32 {
	if i := in.idx(v); i >= 0 {
		return tbl[i]
	}
	return -1
}

// node maps a dense index back to its switch; a negative index (no
// successor) reads as (0, false).
func (in *Instance) node(i int32) (topo.NodeID, bool) {
	if i < 0 {
		return 0, false
	}
	return in.nodeOf[i], true
}

// MustInstance is NewInstance for statically known-good inputs; it
// panics on error. Intended for tests and examples.
func MustInstance(old, newPath topo.Path, waypoint topo.NodeID) *Instance {
	in, err := NewInstance(old, newPath, waypoint)
	if err != nil {
		panic(err)
	}
	return in
}

// Src returns the common source of both paths.
func (in *Instance) Src() topo.NodeID { return in.Old.Src() }

// pendingIdx returns the dense indices of all switches needing updates,
// ordered by new-path position.
func (in *Instance) pendingIdx() []int32 {
	out := make([]int32, 0, in.numPending)
	for i := in.srcIdx; i >= 0; i = in.newSuccIdx[i] {
		if in.pendingBits.Has(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// Pending returns all switches needing updates, ordered by new-path
// position (deterministic).
func (in *Instance) Pending() []topo.NodeID {
	out := make([]topo.NodeID, 0, in.numPending)
	for i := in.srcIdx; i >= 0; i = in.newSuccIdx[i] {
		if in.pendingBits.Has(int(i)) {
			out = append(out, in.nodeOf[i])
		}
	}
	return out
}

// NumPending returns the number of switches needing updates.
func (in *Instance) NumPending() int { return in.numPending }

// OldSucc returns v's old-path successor, if v is a non-final old-path
// switch.
func (in *Instance) OldSucc(v topo.NodeID) (topo.NodeID, bool) {
	return in.node(in.at(in.oldSuccIdx, v))
}

// NewSucc returns v's new-path successor, if v is a non-final new-path
// switch.
func (in *Instance) NewSucc(v topo.NodeID) (topo.NodeID, bool) {
	return in.node(in.at(in.newSuccIdx, v))
}

// OnNew reports whether v lies on the new path.
func (in *Instance) OnNew(v topo.NodeID) bool { return in.at(in.newPos, v) >= 0 }

// NewOnly reports whether v lies on the new path but not the old path
// (such switches carry no rule at all until updated).
func (in *Instance) NewOnly(v topo.NodeID) bool {
	i := in.idx(v)
	return i >= 0 && in.newOnlyIdx(i)
}

func (in *Instance) newOnlyIdx(i int32) bool { return in.oldPos[i] < 0 }

// NaturalProps returns the instance's natural property set: blackhole
// freedom and relaxed loop freedom, plus waypoint enforcement when the
// policy has a waypoint — what a caller that names no properties (or a
// plan that promises none) is scheduled, synthesized and checked
// against.
func (in *Instance) NaturalProps() Property {
	if in.Waypoint != 0 {
		return NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement
	}
	return NoBlackhole | RelaxedLoopFreedom
}

func (in *Instance) String() string {
	if in.Waypoint != 0 {
		return fmt.Sprintf("update{old %v, new %v, wp %d}", in.Old, in.New, in.Waypoint)
	}
	return fmt.Sprintf("update{old %v, new %v}", in.Old, in.New)
}
