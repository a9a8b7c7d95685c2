package topo

import "testing"

// TestPortMapRoundTrip: on a grid, a fat tree (hosts on its edge
// switches) and a graph with several hosts on one switch and a switch
// without links, every switch numbers its neighbors ascending from
// port 1 and then its hosts in insertion order, and Port / Neighbor
// and HostPort / Host are inverses over exactly those ports.
func TestPortMapRoundTrip(t *testing.T) {
	hosted := Linear(4)
	hosted.AddNode(9)
	for _, h := range []Host{{"ha", 2}, {"hb", 4}, {"hc", 2}, {"hd", 9}} {
		mustHost(hosted, h)
	}
	for name, g := range map[string]*Graph{"grid": Grid(3, 4), "fattree": FatTree(4), "hosted": hosted} {
		pm := NewPortMap(g)
		hosts := map[NodeID][]string{}
		for _, h := range g.Hosts() {
			hosts[h.Attach] = append(hosts[h.Attach], h.Name)
		}
		for _, s := range g.Nodes() {
			nbrs := g.Neighbors(s)
			for i, n := range nbrs {
				p := uint16(i + 1)
				if got := pm.Port(s, n); got != p {
					t.Fatalf("%s: Port(%d, %d) = %d, want %d", name, s, n, got, p)
				}
				if got, ok := pm.Neighbor(s, p); !ok || got != n {
					t.Fatalf("%s: Neighbor(%d, %d) = %d %v, want %d", name, s, p, got, ok, n)
				}
				if _, ok := pm.Host(s, p); ok {
					t.Fatalf("%s: port %d of %d is a neighbor's and a host's", name, p, s)
				}
			}
			for k, h := range hosts[s] {
				p := uint16(len(nbrs) + 1 + k)
				if got, ok := pm.HostPort(s, h); !ok || got != p {
					t.Fatalf("%s: HostPort(%d, %q) = %d %v, want %d", name, s, h, got, ok, p)
				}
				if got, ok := pm.Host(s, p); !ok || got != h {
					t.Fatalf("%s: Host(%d, %d) = %q %v, want %q", name, s, p, got, ok, h)
				}
				if _, ok := pm.Neighbor(s, p); ok {
					t.Fatalf("%s: host port %d of %d has a neighbor", name, p, s)
				}
			}
			past := uint16(len(nbrs) + len(hosts[s]) + 1)
			for _, p := range []uint16{0, past} {
				if n, ok := pm.Neighbor(s, p); ok {
					t.Fatalf("%s: Neighbor(%d, %d) = %d, want none", name, s, p, n)
				}
				if h, ok := pm.Host(s, p); ok {
					t.Fatalf("%s: Host(%d, %d) = %q, want none", name, s, p, h)
				}
			}
			if got := pm.Port(s, s); got != 0 {
				t.Fatalf("%s: Port(%d, itself) = %d, want 0", name, s, got)
			}
			if got, ok := pm.HostPort(s, "nobody"); ok {
				t.Fatalf("%s: HostPort(%d, nobody) = %d", name, s, got)
			}
		}
		if got := pm.Port(1000, 1); got != 0 {
			t.Fatalf("%s: Port on an unknown switch = %d", name, got)
		}
		if _, ok := pm.Neighbor(1000, 1); ok {
			t.Fatalf("%s: Neighbor on an unknown switch", name)
		}
		if _, ok := pm.HostPort(1000, "ha"); ok {
			t.Fatalf("%s: HostPort on an unknown switch", name)
		}
		if _, ok := pm.Host(1000, 1); ok {
			t.Fatalf("%s: Host on an unknown switch", name)
		}
	}
	if p, _ := NewPortMap(hosted).HostPort(2, "hc"); p != 4 {
		t.Fatalf("hc on switch 2 (neighbors 1, 3; ha first) at port %d, want 4", p)
	}
}
