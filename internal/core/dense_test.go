package core

import (
	"math/rand"
	"sort"
	"testing"

	"tsu/internal/topo"
)

// mapInstance is the NodeID-keyed reference the dense Instance is
// checked against: the representation core.Instance carried beside its
// index before the index became the only one.
type mapInstance struct {
	old, new         topo.Path
	oldSucc, newSucc map[topo.NodeID]topo.NodeID
	oldPos, newPos   map[topo.NodeID]int
	pending          map[topo.NodeID]bool
}

func newMapInstance(old, newPath topo.Path) *mapInstance {
	m := &mapInstance{
		old: old, new: newPath,
		oldSucc: map[topo.NodeID]topo.NodeID{}, newSucc: map[topo.NodeID]topo.NodeID{},
		oldPos: map[topo.NodeID]int{}, newPos: map[topo.NodeID]int{},
		pending: map[topo.NodeID]bool{},
	}
	for i, v := range old {
		m.oldPos[v] = i
		if i+1 < len(old) {
			m.oldSucc[v] = old[i+1]
		}
	}
	for i, v := range newPath {
		m.newPos[v] = i
		if i+1 < len(newPath) {
			m.newSucc[v] = newPath[i+1]
		}
	}
	for _, v := range newPath[:len(newPath)-1] {
		if next, onOld := m.oldSucc[v]; !onOld || next != m.newSucc[v] {
			m.pending[v] = true
		}
	}
	return m
}

func (m *mapInstance) pendingInOrder() []topo.NodeID {
	out := make([]topo.NodeID, 0, len(m.pending))
	for v := range m.pending {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return m.newPos[out[i]] < m.newPos[out[j]] })
	return out
}

func (m *mapInstance) nextHop(v topo.NodeID, updated map[topo.NodeID]bool) (topo.NodeID, bool) {
	if v == m.old.Dst() {
		return 0, false
	}
	if m.pending[v] {
		if updated[v] {
			return m.newSucc[v], true
		}
		n, ok := m.oldSucc[v]
		return n, ok
	}
	if n, ok := m.newSucc[v]; ok {
		return n, true
	}
	n, ok := m.oldSucc[v]
	return n, ok
}

// walk is Instance.Walk on the maps: the visited path, the repeated
// switch included twice on a loop.
func (m *mapInstance) walk(updated map[topo.NodeID]bool) (topo.Path, Outcome) {
	var path topo.Path
	seen := map[topo.NodeID]bool{}
	for v := m.old.Src(); ; {
		path = append(path, v)
		if v == m.old.Dst() {
			return path, Reached
		}
		if seen[v] {
			return path, Looped
		}
		seen[v] = true
		next, ok := m.nextHop(v, updated)
		if !ok {
			return path, Dropped
		}
		v = next
	}
}

// randomPathPair draws two simple paths with common endpoints over
// sparse random switch ids: the new path reuses a random part of the
// old interior in random order and adds fresh switches. With waypoint
// set, one switch is forced interior to both and returned.
func randomPathPair(rng *rand.Rand, waypoint bool) (old, newPath topo.Path, wp topo.NodeID) {
	ids := map[topo.NodeID]bool{}
	fresh := func() topo.NodeID {
		for {
			if v := topo.NodeID(1 + rng.Int63n(1<<40)); !ids[v] {
				ids[v] = true
				return v
			}
		}
	}
	src, dst := fresh(), fresh()
	var oldIn, newIn topo.Path
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		oldIn = append(oldIn, fresh())
	}
	for _, v := range oldIn {
		if rng.Intn(2) == 0 {
			newIn = append(newIn, v)
		}
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		newIn = append(newIn, fresh())
	}
	if waypoint {
		wp = oldIn[rng.Intn(len(oldIn))]
		if !newIn.Contains(wp) {
			newIn = append(newIn, wp)
		}
	}
	rng.Shuffle(len(newIn), func(i, j int) { newIn[i], newIn[j] = newIn[j], newIn[i] })
	old = append(append(topo.Path{src}, oldIn...), dst)
	newPath = append(append(topo.Path{src}, newIn...), dst)
	return old, newPath, wp
}

// TestDenseInstanceMatchesMapReference: on random simple path pairs,
// with and without a waypoint, every NodeID-typed query of the dense
// Instance answers what the map-based reference answers — for the
// switches of both paths and for switches on neither.
func TestDenseInstanceMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		old, newPath, wp := randomPathPair(rng, trial%2 == 1)
		in, err := NewInstance(old, newPath, wp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := newMapInstance(old, newPath)

		probe := append(append(topo.Path{}, old...), newPath...)
		probe = append(probe, 0, old[0]+1, topo.NodeID(1<<41), ^topo.NodeID(0)) // strangers (most likely)
		updated := map[topo.NodeID]bool{}
		var updatedList []topo.NodeID
		for v := range ref.pending {
			if rng.Intn(2) == 0 {
				updated[v] = true
				updatedList = append(updatedList, v)
			}
		}
		st := in.StateOf(append(updatedList, 0, topo.NodeID(1<<41))...) // strangers are ignored

		for _, v := range probe {
			wantSucc, wantOK := ref.oldSucc[v]
			if got, ok := in.OldSucc(v); got != wantSucc || ok != wantOK {
				t.Fatalf("trial %d: OldSucc(%d) = %d, %v, want %d, %v", trial, v, got, ok, wantSucc, wantOK)
			}
			wantSucc, wantOK = ref.newSucc[v]
			if got, ok := in.NewSucc(v); got != wantSucc || ok != wantOK {
				t.Fatalf("trial %d: NewSucc(%d) = %d, %v, want %d, %v", trial, v, got, ok, wantSucc, wantOK)
			}
			wantOld, onOld := ref.oldPos[v]
			if !onOld {
				wantOld = -1
			}
			wantNew, onNew := ref.newPos[v]
			if !onNew {
				wantNew = -1
			}
			if got := oldPathIndex(in, v); got != wantOld {
				t.Fatalf("trial %d: OldIndex(%d) = %d, want %d", trial, v, got, wantOld)
			}
			if got := newPathIndex(in, v); got != wantNew {
				t.Fatalf("trial %d: NewIndex(%d) = %d, want %d", trial, v, got, wantNew)
			}
			if onOldPath(in, v) != onOld || in.OnNew(v) != onNew || in.NewOnly(v) != (onNew && !onOld) {
				t.Fatalf("trial %d: OnOld/OnNew/NewOnly(%d) = %v/%v/%v, want %v/%v/%v",
					trial, v, onOldPath(in, v), in.OnNew(v), in.NewOnly(v), onOld, onNew, onNew && !onOld)
			}
			if pendingAt(in, v) != ref.pending[v] {
				t.Fatalf("trial %d: NeedsUpdate(%d) = %v, want %v", trial, v, pendingAt(in, v), ref.pending[v])
			}
			if in.Updated(st, v) != updated[v] {
				t.Fatalf("trial %d: Updated(StateOf(...), %d) = %v, want %v", trial, v, in.Updated(st, v), updated[v])
			}
			wantHop, wantOK := ref.nextHop(v, updated)
			if got, ok := nextHop(in, v, st); got != wantHop || ok != wantOK {
				t.Fatalf("trial %d: NextHop(%d) = %d, %v, want %d, %v", trial, v, got, ok, wantHop, wantOK)
			}
			if i := in.NodeIndex(v); (i >= 0) != (onOld || onNew) || (i >= 0 && in.nodeOf[i] != v) {
				t.Fatalf("trial %d: NodeIndex(%d) = %d", trial, v, i)
			}
		}
		if got, want := in.Pending(), ref.pendingInOrder(); !topo.Path(got).Equal(topo.Path(want)) || in.NumPending() != len(want) {
			t.Fatalf("trial %d: Pending() = %v (NumPending %d), want %v", trial, got, in.NumPending(), want)
		}
		if got := in.StateNodes(st); len(got) != len(updated) || st.Count() != len(updated) {
			t.Fatalf("trial %d: StateOf marked %v, want the %d updated switches", trial, got, len(updated))
		}
		walk, outcome := in.Walk(st)
		if wantWalk, want := ref.walk(updated); !walk.Equal(wantWalk) || outcome != want {
			t.Fatalf("trial %d: Walk = %v (%s), want %v (%s)", trial, walk, outcome, wantWalk, want)
		}
	}
}

// TestDenseInstanceOwnsItsPaths: the instance's Old and New are copies,
// and appending to either cannot reach the other tables that share
// their backing array.
func TestDenseInstanceOwnsItsPaths(t *testing.T) {
	old, newPath := topo.Path{1, 2, 3, 4}, topo.Path{1, 3, 2, 4}
	in := MustInstance(old, newPath, 0)
	old[1], newPath[1] = 99, 98
	_ = append(in.Old, 77)
	_ = append(in.New, 78)
	if !in.Old.Equal(topo.Path{1, 2, 3, 4}) || !in.New.Equal(topo.Path{1, 3, 2, 4}) || !topo.Path(in.nodeOf).Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("instance changed under its caller: old %v new %v nodes %v", in.Old, in.New, in.nodeOf)
	}
}

// pendingAt, onOldPath, oldPathIndex and newPathIndex read one switch's
// entries of the instance's tables.
func pendingAt(in *Instance, v topo.NodeID) bool   { return in.pendingBits.Has(int(in.idx(v))) }
func onOldPath(in *Instance, v topo.NodeID) bool   { return in.at(in.oldPos, v) >= 0 }
func oldPathIndex(in *Instance, v topo.NodeID) int { return int(in.at(in.oldPos, v)) }
func newPathIndex(in *Instance, v topo.NodeID) int { return int(in.at(in.newPos, v)) }
