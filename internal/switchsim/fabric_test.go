package switchsim

import (
	"net"
	"testing"

	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// buildFabric creates a fabric over g with one switch per node (no
// control connections — tables are programmed directly).
func buildFabric(t *testing.T, g *topo.Graph) *Fabric {
	t.Helper()
	f := NewFabric(g)
	for _, n := range g.Nodes() {
		if _, err := NewSwitch(f, Config{Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// programPath installs flow rules along path for ip, delivering to host
// at the destination when host is non-empty.
func programPath(t *testing.T, f *Fabric, path topo.Path, ip string, host string) {
	t.Helper()
	pm := f.Ports()
	for i := 0; i+1 < len(path); i++ {
		port := pm.Port(path[i], path[i+1])
		if port == 0 {
			t.Fatalf("no port %d→%d", path[i], path[i+1])
		}
		f.Switch(path[i]).Table().Apply(fm(openflow.FlowAdd, ip, 100, port))
	}
	if host != "" {
		port, ok := pm.HostPort(path.Dst(), host)
		if !ok {
			t.Fatalf("no host port for %q on %d", host, path.Dst())
		}
		f.Switch(path.Dst()).Table().Apply(fm(openflow.FlowAdd, ip, 100, port))
	}
}

func TestFabricDeliversAlongPath(t *testing.T) {
	g := topo.Fig1()
	f := buildFabric(t, g)
	programPath(t, f, topo.Fig1OldPath, "10.0.0.2", "h2")
	res := f.Inject(1, nwDst("10.0.0.2"), 64)
	if res.Outcome != ProbeDelivered || res.Host != "h2" {
		t.Fatalf("probe = %+v", res)
	}
	if !res.Visited.Equal(topo.Fig1OldPath) {
		t.Fatalf("visited %v, want %v", res.Visited, topo.Fig1OldPath)
	}
	if !res.VisitedBefore(topo.Fig1Waypoint) {
		t.Fatal("waypoint crossing not detected")
	}
}

func TestFabricDropsOnMiss(t *testing.T) {
	g := topo.Linear(3)
	f := buildFabric(t, g)
	// Only switch 1 programmed: probe drops at 2.
	pm := f.Ports()
	f.Switch(1).Table().Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, pm.Port(1, 2)))
	res := f.Inject(1, nwDst("10.0.0.2"), 64)
	if res.Outcome != ProbeDropped {
		t.Fatalf("outcome = %v, want dropped", res.Outcome)
	}
	if !res.Visited.Equal(topo.Path{1, 2}) {
		t.Fatalf("visited = %v", res.Visited)
	}
}

func TestFabricDetectsLoop(t *testing.T) {
	g := topo.Linear(3)
	f := buildFabric(t, g)
	pm := f.Ports()
	// 1→2, 2→1: forwarding loop.
	f.Switch(1).Table().Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, pm.Port(1, 2)))
	f.Switch(2).Table().Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, pm.Port(2, 1)))
	res := f.Inject(1, nwDst("10.0.0.2"), 16)
	if res.Outcome != ProbeTTLExceeded {
		t.Fatalf("outcome = %v, want ttl-exceeded", res.Outcome)
	}
	if len(res.Visited) < 16 {
		t.Fatalf("loop walk too short: %v", res.Visited)
	}
}

func TestFabricDropsOnBadPort(t *testing.T) {
	g := topo.Linear(2)
	f := buildFabric(t, g)
	f.Switch(1).Table().Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 99)) // no such port
	res := f.Inject(1, nwDst("10.0.0.2"), 8)
	if res.Outcome != ProbeDropped {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestFabricUnknownStartSwitch(t *testing.T) {
	g := topo.Linear(2)
	f := NewFabric(g) // no switches registered
	res := f.Inject(1, nwDst("10.0.0.2"), 8)
	if res.Outcome != ProbeDropped || len(res.Visited) != 0 {
		t.Fatalf("probe on empty fabric = %+v", res)
	}
}

func TestFabricDuplicateRegistration(t *testing.T) {
	g := topo.Linear(2)
	f := NewFabric(g)
	if _, err := NewSwitch(f, Config{Node: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitch(f, Config{Node: 1}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := NewSwitch(f, Config{Node: 99}); err == nil {
		t.Fatal("off-topology switch accepted")
	}
}

func TestProbeOutcomeString(t *testing.T) {
	for o, want := range map[ProbeOutcome]string{
		ProbeDelivered:   "delivered",
		ProbeDropped:     "dropped",
		ProbeTTLExceeded: "ttl-exceeded",
		ProbeOutcome(9):  "unknown",
	} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q", o, o.String())
		}
	}
}

func TestSwitchFeatures(t *testing.T) {
	g := topo.Fig1()
	f := buildFabric(t, g)
	sw := f.Switch(3)
	fr := sw.features()
	if fr.DatapathID != 3 {
		t.Fatalf("dpid = %d", fr.DatapathID)
	}
	// Switch 3 on Fig1: neighbors 2, 4, 8, 9 → four ports, no host.
	if len(fr.Ports) != 4 {
		t.Fatalf("ports = %d, want 4 (%v)", len(fr.Ports), fr.Ports)
	}
	// Switch 1 carries host h1.
	fr1 := f.Switch(1).features()
	wantPorts := len(g.Neighbors(1)) + 1
	if len(fr1.Ports) != wantPorts {
		t.Fatalf("switch 1 ports = %d, want %d", len(fr1.Ports), wantPorts)
	}
}

func TestNwDstHelper(t *testing.T) {
	if nwDst("10.0.0.2") != 0x0a000002 {
		t.Fatalf("nwDst = %#x", nwDst("10.0.0.2"))
	}
}

func TestApplyActionsVLANRewrite(t *testing.T) {
	pkt := openflow.UntaggedPacket(nwDst("10.0.0.2"))
	port, ok := openflow.ApplyActions([]openflow.Action{
		openflow.ActionSetVLAN{VLAN: 9},
		openflow.ActionOutput{Port: 3},
	}, &pkt)
	if !ok || port != 3 {
		t.Fatalf("port = %d ok=%v", port, ok)
	}
	if pkt.VLAN != 9 {
		t.Fatalf("vlan = %d, want 9", pkt.VLAN)
	}
	port, ok = openflow.ApplyActions([]openflow.Action{openflow.ActionStripVLAN{}, openflow.ActionOutput{Port: 1}}, &pkt)
	if !ok || port != 1 || pkt.VLAN != openflow.VLANNone {
		t.Fatalf("strip failed: port=%d vlan=%d", port, pkt.VLAN)
	}
	if _, ok := openflow.ApplyActions([]openflow.Action{openflow.ActionSetVLAN{VLAN: 1}}, &pkt); ok {
		t.Fatal("action list without output must drop")
	}
}

func TestFabricTaggedWalk(t *testing.T) {
	// Ingress tags and sends 1→2; switch 2 has only a tagged rule to 3.
	g := topo.Linear(3)
	f := buildFabric(t, g)
	pm := f.Ports()
	ingress := &openflow.FlowMod{
		Match:    openflow.ExactNWDst(net.ParseIP("10.0.0.2")),
		Command:  openflow.FlowAdd,
		Priority: 100,
		Actions: []openflow.Action{
			openflow.ActionSetVLAN{VLAN: 5},
			openflow.ActionOutput{Port: pm.Port(1, 2)},
		},
	}
	f.Switch(1).Table().Apply(ingress)
	taggedMatch := openflow.ExactNWDst(net.ParseIP("10.0.0.2"))
	taggedMatch.Wildcards &^= openflow.WildcardDLVLAN
	taggedMatch.DLVLAN = 5
	tagged := &openflow.FlowMod{
		Match:    taggedMatch,
		Command:  openflow.FlowAdd,
		Priority: 110,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: pm.Port(2, 3)}},
	}
	f.Switch(2).Table().Apply(tagged)
	res := f.Inject(1, nwDst("10.0.0.2"), 16)
	if res.Outcome != ProbeDropped || !res.Visited.Equal(topo.Path{1, 2, 3}) {
		t.Fatalf("tagged walk = %+v (3 has no rule: expected drop after 1→2→3)", res)
	}
	// Without the tag, switch 2 has no matching rule: drop at 2.
	f.Switch(1).Table().Apply(&openflow.FlowMod{
		Match:    openflow.ExactNWDst(net.ParseIP("10.0.0.2")),
		Command:  openflow.FlowModify,
		Priority: 100,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: pm.Port(1, 2)}},
	})
	res = f.Inject(1, nwDst("10.0.0.2"), 16)
	if res.Outcome != ProbeDropped || !res.Visited.Equal(topo.Path{1, 2}) {
		t.Fatalf("untagged walk = %+v (expected drop at 2)", res)
	}
}
