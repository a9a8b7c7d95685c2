package core

import (
	"errors"
	"fmt"
	"sort"

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
// An Instance is immutable after construction and safe for concurrent
// use; the parallel verifier relies on this.
type Instance struct {
	Old      topo.Path
	New      topo.Path
	Waypoint topo.NodeID // 0 when the policy has no waypoint

	oldSucc map[topo.NodeID]topo.NodeID
	newSucc map[topo.NodeID]topo.NodeID
	oldPos  map[topo.NodeID]int
	newPos  map[topo.NodeID]int
	pending map[topo.NodeID]bool // switches that need a FlowMod

	// Dense index layer: every switch of Old ∪ New gets an index in
	// [0, NumNodes), ascending by switch ID. The hot paths — Walk,
	// CheckState, CheckRound's subset search, RoundSafeStrongLF — run
	// entirely on these arrays and State bitsets.
	nodeOf      []topo.NodeID
	idxOf       map[topo.NodeID]int32
	oldSuccIdx  []int32 // -1 when v has no old-path successor
	newSuccIdx  []int32 // -1 when v has no new-path successor
	pendingBits State
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
		for _, p := range []topo.Path{old, newPath} {
			i := p.Index(waypoint)
			if i <= 0 || i >= len(p)-1 {
				return nil, fmt.Errorf("core: waypoint %d not strictly interior to path %v: %w", waypoint, p, ErrWaypoint)
			}
		}
	}
	in := &Instance{
		Old:      old.Clone(),
		New:      newPath.Clone(),
		Waypoint: waypoint,
		oldSucc:  make(map[topo.NodeID]topo.NodeID, len(old)),
		newSucc:  make(map[topo.NodeID]topo.NodeID, len(newPath)),
		oldPos:   make(map[topo.NodeID]int, len(old)),
		newPos:   make(map[topo.NodeID]int, len(newPath)),
		pending:  make(map[topo.NodeID]bool),
	}
	for i, v := range in.Old {
		in.oldPos[v] = i
		if i+1 < len(in.Old) {
			in.oldSucc[v] = in.Old[i+1]
		}
	}
	for i, v := range in.New {
		in.newPos[v] = i
		if i+1 < len(in.New) {
			in.newSucc[v] = in.New[i+1]
		}
	}
	for _, v := range in.New[:len(in.New)-1] {
		oldNext, onOld := in.oldSucc[v]
		if !onOld || oldNext != in.newSucc[v] {
			in.pending[v] = true
		}
	}
	in.buildIndex()
	return in, nil
}

// buildIndex materializes the dense index layer from the path maps.
func (in *Instance) buildIndex() {
	seen := make(map[topo.NodeID]bool, len(in.Old)+len(in.New))
	for _, p := range []topo.Path{in.Old, in.New} {
		for _, v := range p {
			if !seen[v] {
				seen[v] = true
				in.nodeOf = append(in.nodeOf, v)
			}
		}
	}
	sort.Slice(in.nodeOf, func(i, j int) bool { return in.nodeOf[i] < in.nodeOf[j] })
	in.words = (len(in.nodeOf) + 63) / 64
	in.idxOf = make(map[topo.NodeID]int32, len(in.nodeOf))
	for i, v := range in.nodeOf {
		in.idxOf[v] = int32(i)
	}
	in.oldSuccIdx = make([]int32, len(in.nodeOf))
	in.newSuccIdx = make([]int32, len(in.nodeOf))
	in.pendingBits = in.NewState()
	for i, v := range in.nodeOf {
		in.oldSuccIdx[i], in.newSuccIdx[i] = -1, -1
		if n, ok := in.oldSucc[v]; ok {
			in.oldSuccIdx[i] = in.idxOf[n]
		}
		if n, ok := in.newSucc[v]; ok {
			in.newSuccIdx[i] = in.idxOf[n]
		}
		if in.pending[v] {
			in.pendingBits.Set(i)
		}
	}
	in.srcIdx = in.idxOf[in.Old.Src()]
	in.dstIdx = in.idxOf[in.Old.Dst()]
	in.wpIdx = -1
	if in.Waypoint != 0 {
		in.wpIdx = in.idxOf[in.Waypoint]
	}
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

// Dst returns the common destination of both paths.
func (in *Instance) Dst() topo.NodeID { return in.Old.Dst() }

// NeedsUpdate reports whether v requires a FlowMod (it is on the new
// path, is not the destination, and its forwarding rule changes).
func (in *Instance) NeedsUpdate(v topo.NodeID) bool { return in.pending[v] }

// Pending returns all switches needing updates, ordered by new-path
// position (deterministic).
func (in *Instance) Pending() []topo.NodeID {
	out := make([]topo.NodeID, 0, len(in.pending))
	for v := range in.pending {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return in.newPos[out[i]] < in.newPos[out[j]] })
	return out
}

// NumPending returns the number of switches needing updates.
func (in *Instance) NumPending() int { return len(in.pending) }

// OldSucc returns v's old-path successor, if v is a non-final old-path
// switch.
func (in *Instance) OldSucc(v topo.NodeID) (topo.NodeID, bool) {
	n, ok := in.oldSucc[v]
	return n, ok
}

// NewSucc returns v's new-path successor, if v is a non-final new-path
// switch.
func (in *Instance) NewSucc(v topo.NodeID) (topo.NodeID, bool) {
	n, ok := in.newSucc[v]
	return n, ok
}

// OnOld reports whether v lies on the old path.
func (in *Instance) OnOld(v topo.NodeID) bool {
	_, ok := in.oldPos[v]
	return ok
}

// OnNew reports whether v lies on the new path.
func (in *Instance) OnNew(v topo.NodeID) bool {
	_, ok := in.newPos[v]
	return ok
}

// OldIndex returns v's position on the old path, or -1.
func (in *Instance) OldIndex(v topo.NodeID) int {
	if i, ok := in.oldPos[v]; ok {
		return i
	}
	return -1
}

// NewIndex returns v's position on the new path, or -1.
func (in *Instance) NewIndex(v topo.NodeID) int {
	if i, ok := in.newPos[v]; ok {
		return i
	}
	return -1
}

// NewOnly reports whether v lies on the new path but not the old path
// (such switches carry no rule at all until updated).
func (in *Instance) NewOnly(v topo.NodeID) bool {
	return in.OnNew(v) && !in.OnOld(v)
}

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

// Nodes returns the union of both paths' switches in ascending ID order.
func (in *Instance) Nodes() []topo.NodeID {
	out := make([]topo.NodeID, len(in.nodeOf))
	copy(out, in.nodeOf)
	return out
}

func (in *Instance) String() string {
	if in.Waypoint != 0 {
		return fmt.Sprintf("update{old %v, new %v, wp %d}", in.Old, in.New, in.Waypoint)
	}
	return fmt.Sprintf("update{old %v, new %v}", in.Old, in.New)
}
