package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLinkCanonical(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(2, 5); err != nil {
		t.Fatal(err)
	}
	if numLinks(g) != 1 || !hasLink(g, 2, 5) || !hasLink(g, 5, 2) {
		t.Fatalf("5-2 and 2-5 are not one undirected link: %d links", numLinks(g))
	}
}

func TestLinkHasOther(t *testing.T) {
	g := Grid(3, 3)
	for _, a := range g.Nodes() {
		for _, b := range g.Neighbors(a) {
			if !hasLink(g, b, a) {
				t.Fatalf("link %d-%d missing from %d's side", a, b, b)
			}
		}
	}
	if hasLink(g, 1, 99) {
		t.Fatal("link to a switch outside the graph")
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddNode(1)
	g.AddNode(1) // idempotent
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2); err != nil { // idempotent
		t.Fatal(err)
	}
	if numLinks(g) != 1 {
		t.Fatalf("NumLinks = %d, want 1", numLinks(g))
	}
	if !hasLink(g, 2, 1) {
		t.Fatal("link not symmetric")
	}
	if len(g.Neighbors(1)) != 1 {
		t.Fatalf("Degree(1) = %d, want 1", len(g.Neighbors(1)))
	}
}

func TestGraphSelfLinkRejected(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(3, 3); err == nil {
		t.Fatal("self-link accepted")
	}
}

func TestGraphZeroValueUsable(t *testing.T) {
	var g Graph
	g.AddNode(7)
	if !g.HasNode(7) {
		t.Fatal("zero-value graph unusable")
	}
}

func TestGraphHosts(t *testing.T) {
	g := Linear(3)
	if err := g.AddHost(Host{Name: "h1", Attach: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHost(Host{Name: "hx", Attach: 99}); err == nil {
		t.Fatal("host on unknown switch accepted")
	}
	hs := g.Hosts()
	if len(hs) != 1 || hs[0].Name != "h1" {
		t.Fatalf("Hosts = %v", hs)
	}
}

func TestGraphNodesSorted(t *testing.T) {
	g := NewGraph()
	for _, n := range []NodeID{5, 1, 3, 2, 4} {
		g.AddNode(n)
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes not sorted: %v", nodes)
		}
	}
}

func TestGraphLinksDeterministic(t *testing.T) {
	g := Grid(3, 3)
	for _, n := range g.Nodes() {
		if a, b := g.Neighbors(n), g.Neighbors(n); !Path(a).Equal(Path(b)) {
			t.Fatalf("Neighbors(%d) not deterministic: %v vs %v", n, a, b)
		}
	}
	if numLinks(g) != 12 { // 3x3 grid: 2*3 horizontal + 2*3 vertical
		t.Fatalf("grid links = %d, want 12", numLinks(g))
	}
}

func TestConnected(t *testing.T) {
	for name, g := range map[string]*Graph{"linear": Linear(5), "ring": Ring(5), "grid": Grid(3, 4), "fattree": FatTree(4), "fig1": Fig1()} {
		if !connected(g) {
			t.Fatalf("%s disconnected", name)
		}
	}
	g := Linear(5)
	g.AddNode(99)
	if connected(g) {
		t.Fatal("isolated node should break connectivity")
	}
	if !connected(NewGraph()) {
		t.Fatal("empty graph considered connected by convention")
	}
}

// connected reports whether every switch of g reaches every other; the
// empty graph counts as connected.
func connected(g *Graph) bool {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return true
	}
	seen := map[NodeID]bool{nodes[0]: true}
	for stack := []NodeID{nodes[0]}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.Neighbors(n) {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == len(nodes)
}

// containsPath reports whether p runs over switches and links of g.
func containsPath(g *Graph, p Path) bool {
	for i, n := range p {
		if !g.HasNode(n) || i+1 < len(p) && !hasLink(g, n, p[i+1]) {
			return false
		}
	}
	return true
}

func hasLink(g *Graph, a, b NodeID) bool { return Path(g.Neighbors(a)).Contains(b) }

// numLinks counts g's undirected links.
func numLinks(g *Graph) int {
	ends := 0
	for _, n := range g.Nodes() {
		ends += len(g.Neighbors(n))
	}
	return ends / 2
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		in   string
		want Path
		ok   bool
	}{
		{"1,2,3", Path{1, 2, 3}, true},
		{"1 2 3", Path{1, 2, 3}, true},
		{"12", Path{12}, true},
		{"", nil, false},
		{"1,x,3", nil, false},
		{"-1,2", nil, false},
	}
	for _, c := range cases {
		got, err := ParsePath(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParsePath(%q) err = %v, ok want %v", c.in, err, c.ok)
		}
		if c.ok && !got.Equal(c.want) {
			t.Fatalf("ParsePath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPathString(t *testing.T) {
	if s := (Path{1, 2, 3}).String(); s != "1->2->3" {
		t.Fatalf("String = %q", s)
	}
}

func TestPathQueries(t *testing.T) {
	p := Path{4, 7, 9}
	if p.Src() != 4 || p.Dst() != 9 {
		t.Fatal("Src/Dst wrong")
	}
	if p.Index(7) != 1 || p.Index(5) != -1 {
		t.Fatal("Index wrong")
	}
	if !p.Contains(9) || p.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if i := p.Index(4); i < 0 || p[i+1] != 7 {
		t.Fatal("hop after 4 wrong")
	}
	if p.Index(9) != len(p)-1 {
		t.Fatal("destination should be the last hop")
	}
}

// TestLinkOtherPanics: the builders' helpers panic on a link or host
// the graph refuses — a self-link, a host on a switch outside it.
func TestLinkOtherPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-link":    func() { mustLink(Linear(2), 1, 1) },
		"foreign-host": func() { mustHost(Linear(2), Host{Name: "hx", Attach: 9}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPathSimpleValidate(t *testing.T) {
	if !(Path{1, 2, 3}).Simple() {
		t.Fatal("simple path flagged non-simple")
	}
	if (Path{1, 2, 1}).Simple() {
		t.Fatal("repeated node not caught")
	}
	if (Path{}).Simple() {
		t.Fatal("empty path should not be simple")
	}
	if err := (Path{1, 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Path{1}).Validate(); err == nil {
		t.Fatal("single-node path validated")
	}
	if err := (Path{1, 2, 2}).Validate(); err == nil {
		t.Fatal("non-simple path validated")
	}
}

func TestFig1Invariants(t *testing.T) {
	g := Fig1()
	if g.NumNodes() != 12 {
		t.Fatalf("Fig1 nodes = %d, want 12", g.NumNodes())
	}
	if !connected(g) {
		t.Fatal("Fig1 disconnected")
	}
	for _, p := range []Path{Fig1OldPath, Fig1NewPath} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if !containsPath(g, p) {
			t.Fatalf("Fig1 missing path %v", p)
		}
		if !p.Contains(Fig1Waypoint) {
			t.Fatalf("path %v misses waypoint", p)
		}
		if p.Src() != 1 || p.Dst() != 12 {
			t.Fatalf("path %v endpoints wrong", p)
		}
	}
	// Union of both routes covers all 12 switches (as drawn).
	seen := map[NodeID]bool{}
	for _, p := range []Path{Fig1OldPath, Fig1NewPath} {
		for _, n := range p {
			seen[n] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("routes cover %d switches, want 12", len(seen))
	}
	hs := g.Hosts()
	if len(hs) != 2 || hs[0].Attach != 1 || hs[1].Attach != 12 {
		t.Fatalf("Fig1 hosts = %v", hs)
	}
}

func TestLinearRingGrid(t *testing.T) {
	if g := Linear(1); g.NumNodes() != 1 || numLinks(g) != 0 {
		t.Fatal("Linear(1) wrong")
	}
	if g := Linear(5); numLinks(g) != 4 {
		t.Fatal("Linear(5) wrong")
	}
	if g := Ring(5); numLinks(g) != 5 {
		t.Fatal("Ring(5) wrong")
	}
	if g := Grid(2, 3); g.NumNodes() != 6 || numLinks(g) != 7 {
		t.Fatalf("Grid(2,3) wrong: %d nodes %d links", g.NumNodes(), numLinks(g))
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Linear0":    func() { Linear(0) },
		"Ring2":      func() { Ring(2) },
		"Grid0":      func() { Grid(0, 3) },
		"Reversal3":  func() { Reversal(3) },
		"Staircase4": func() { Staircase(4) },
		"Random3":    func() { RandomTwoPath(rand.New(rand.NewSource(1)), 3, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReversalStructure(t *testing.T) {
	inst := Reversal(6)
	if !inst.Old.Equal(Path{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("old = %v", inst.Old)
	}
	if !inst.New.Equal(Path{1, 5, 4, 3, 2, 6}) {
		t.Fatalf("new = %v", inst.New)
	}
	if !containsPath(inst.Graph, inst.New) {
		t.Fatal("graph missing new path")
	}
}

func TestStaircaseStructure(t *testing.T) {
	inst := Staircase(8)
	if !inst.New.Equal(Path{1, 3, 2, 5, 4, 7, 6, 8}) {
		t.Fatalf("staircase new = %v", inst.New)
	}
	if err := inst.New.Validate(); err != nil {
		t.Fatal(err)
	}
	inst = Staircase(9)
	if err := inst.New.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.New.Dst() != 9 {
		t.Fatalf("staircase(9) dst = %v", inst.New.Dst())
	}
}

// TestRandomTwoPathInvariants property-tests the workload generator:
// both paths simple, same endpoints, waypoint interior to both when
// requested, and all path links present in the graph.
func TestRandomTwoPathInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	check := func(seed int64, rawN uint8, wantWP bool) bool {
		n := 4 + int(rawN%60)
		rng := rand.New(rand.NewSource(seed))
		inst := RandomTwoPath(rng, n, wantWP)
		if err := inst.Old.Validate(); err != nil {
			return false
		}
		if err := inst.New.Validate(); err != nil {
			return false
		}
		if inst.Old.Src() != inst.New.Src() || inst.Old.Dst() != inst.New.Dst() {
			return false
		}
		if !containsPath(inst.Graph, inst.Old) || !containsPath(inst.Graph, inst.New) {
			return false
		}
		if wantWP {
			w := inst.Waypoint
			if w == 0 {
				return false
			}
			for _, p := range []Path{inst.Old, inst.New} {
				i := p.Index(w)
				if i <= 0 || i >= len(p)-1 {
					return false
				}
			}
		} else if inst.Waypoint != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTwoPathDeterministicPerSeed(t *testing.T) {
	a := RandomTwoPath(rand.New(rand.NewSource(42)), 12, true)
	b := RandomTwoPath(rand.New(rand.NewSource(42)), 12, true)
	if !a.Old.Equal(b.Old) || !a.New.Equal(b.New) || a.Waypoint != b.Waypoint {
		t.Fatal("generator not deterministic for fixed seed")
	}
}

func TestNestedStructure(t *testing.T) {
	inst := Nested(10)
	if !inst.New.Equal(Path{1, 9, 6, 3, 10}) {
		t.Fatalf("nested(10) new = %v", inst.New)
	}
	if err := inst.New.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 8, 9, 22, 100} {
		inst := Nested(n)
		if err := inst.New.Validate(); err != nil {
			t.Fatalf("Nested(%d): %v", n, err)
		}
		if inst.New.Dst() != NodeID(n) || inst.New.Src() != 1 {
			t.Fatalf("Nested(%d) endpoints wrong: %v", n, inst.New)
		}
		if !containsPath(inst.Graph, inst.New) {
			t.Fatalf("Nested(%d) graph missing new path", n)
		}
	}
}
