//go:build !race

package switchsim

import (
	"testing"

	"tsu/internal/topo"
)

// TestFeaturesAllocs pins what a FEATURES_REPLY costs, built on every
// connect: the reply, its port slice at its final size, and one string
// per port name — no slice growth and no fmt.
func TestFeaturesAllocs(t *testing.T) {
	g := topo.NewGraph()
	for n := topo.NodeID(2); n <= 7; n++ {
		if err := g.AddLink(1, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []string{"ha", "hb"} {
		if err := g.AddHost(topo.Host{Name: h, Attach: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := NewSwitch(NewFabric(g), Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	ports := len(sw.features().Ports)
	if got := testing.AllocsPerRun(100, func() { sw.features() }); ports != 8 || got > float64(2+ports) {
		t.Fatalf("features = %.1f allocs for %d ports, want 8 ports in <= %d", got, ports, 2+ports)
	}
}
