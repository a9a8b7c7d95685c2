package core

import (
	"strings"
	"testing"

	"tsu/internal/topo"
)

func TestNewInstanceValidation(t *testing.T) {
	cases := []struct {
		name string
		old  topo.Path
		new  topo.Path
		wp   topo.NodeID
		ok   bool
	}{
		{"valid", topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 0, true},
		{"valid-wp", topo.Path{1, 2, 3}, topo.Path{1, 2, 4, 3}, 2, true},
		{"old-too-short", topo.Path{1}, topo.Path{1, 2}, 0, false},
		{"new-too-short", topo.Path{1, 2}, topo.Path{2}, 0, false},
		{"src-mismatch", topo.Path{1, 2, 3}, topo.Path{2, 3}, 0, false},
		{"dst-mismatch", topo.Path{1, 2, 3}, topo.Path{1, 2}, 0, false},
		{"old-not-simple", topo.Path{1, 2, 1, 3}, topo.Path{1, 3}, 0, false},
		{"new-not-simple", topo.Path{1, 3}, topo.Path{1, 2, 2, 3}, 0, false},
		{"wp-not-on-new", topo.Path{1, 2, 3}, topo.Path{1, 4, 3}, 2, false},
		{"wp-is-src", topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 1, false},
		{"wp-is-dst", topo.Path{1, 2, 3}, topo.Path{1, 2, 3}, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewInstance(c.old, c.new, c.wp)
			if c.ok != (err == nil) {
				t.Fatalf("NewInstance(%v, %v, %d) err = %v, want ok=%v", c.old, c.new, c.wp, err, c.ok)
			}
		})
	}
}

func TestMustInstancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInstance on bad input did not panic")
		}
	}()
	MustInstance(topo.Path{1}, topo.Path{1, 2}, 0)
}

func TestPendingComputation(t *testing.T) {
	// Old 1→2→3→4, new 1→5→3→4: switch 1 changes rule, 5 is new-only,
	// 3 keeps the same successor (4) so it needs no update; 2 is
	// old-only.
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 0)
	want := []topo.NodeID{1, 5}
	got := in.Pending()
	if len(got) != len(want) {
		t.Fatalf("Pending = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pending = %v, want %v", got, want)
		}
	}
	if in.NumPending() != 2 {
		t.Fatalf("NumPending = %d", in.NumPending())
	}
	if !pendingAt(in, 1) || !pendingAt(in, 5) {
		t.Fatal("NeedsUpdate wrong for 1/5")
	}
	if pendingAt(in, 2) || pendingAt(in, 3) || pendingAt(in, 4) {
		t.Fatal("NeedsUpdate wrong for 2/3/4")
	}
}

func TestPendingOrderIsNewPathOrder(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4, 5, 6}, topo.Path{1, 5, 4, 3, 2, 6}, 0)
	got := in.Pending()
	// New-path order: 1, 5, 4, 3, 2.
	want := []topo.NodeID{1, 5, 4, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pending = %v, want %v", got, want)
		}
	}
}

func TestInstanceAccessors(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3, 4}, topo.Path{1, 5, 3, 4}, 3)
	if in.Src() != 1 || in.Old.Dst() != 4 {
		t.Fatal("Src/Dst wrong")
	}
	if n, ok := in.OldSucc(2); !ok || n != 3 {
		t.Fatal("OldSucc(2) wrong")
	}
	if _, ok := in.OldSucc(4); ok {
		t.Fatal("OldSucc(dst) should be absent")
	}
	if _, ok := in.OldSucc(5); ok {
		t.Fatal("OldSucc(new-only) should be absent")
	}
	if n, ok := in.NewSucc(5); !ok || n != 3 {
		t.Fatal("NewSucc(5) wrong")
	}
	if !onOldPath(in, 2) || onOldPath(in, 5) {
		t.Fatal("OnOld wrong")
	}
	if !in.OnNew(5) || in.OnNew(2) {
		t.Fatal("OnNew wrong")
	}
	if !in.NewOnly(5) || in.NewOnly(3) || in.NewOnly(2) {
		t.Fatal("NewOnly wrong")
	}
	if oldPathIndex(in, 3) != 2 || oldPathIndex(in, 5) != -1 {
		t.Fatal("OldIndex wrong")
	}
	if newPathIndex(in, 3) != 2 || newPathIndex(in, 2) != -1 {
		t.Fatal("NewIndex wrong")
	}
	nodes := in.nodeOf
	if len(nodes) != 5 {
		t.Fatalf("Nodes = %v", nodes)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes not sorted: %v", nodes)
		}
	}
}

func TestInstanceCopiesPaths(t *testing.T) {
	old := topo.Path{1, 2, 3}
	in := MustInstance(old, topo.Path{1, 3}, 0)
	old[1] = 99
	if in.Old[1] != 2 {
		t.Fatal("Instance aliases caller's path slice")
	}
}

func TestInstanceString(t *testing.T) {
	in := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 2, 4, 3}, 2)
	s := in.String()
	if !strings.Contains(s, "wp 2") {
		t.Fatalf("String misses waypoint: %q", s)
	}
	in2 := MustInstance(topo.Path{1, 2, 3}, topo.Path{1, 3}, 0)
	if strings.Contains(in2.String(), "wp") {
		t.Fatalf("String mentions waypoint without one: %q", in2.String())
	}
}

func TestPropertyString(t *testing.T) {
	if s := (NoBlackhole | WaypointEnforcement).String(); s != "NoBlackhole|WaypointEnforcement" {
		t.Fatalf("Property.String = %q", s)
	}
	if s := Property(0).String(); s != "None" {
		t.Fatalf("zero Property.String = %q", s)
	}
	if !(NoBlackhole | StrongLoopFreedom).Has(NoBlackhole) {
		t.Fatal("Has wrong")
	}
	if (NoBlackhole).Has(NoBlackhole | StrongLoopFreedom) {
		t.Fatal("Has should require all bits")
	}
}
