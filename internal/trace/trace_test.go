package trace

import (
	"context"
	"net"
	"testing"
	"time"

	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func nwDst(ip string) uint32 {
	v4 := net.ParseIP(ip).To4()
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
}

func addRule(t *testing.T, f *switchsim.Fabric, node topo.NodeID, ip string, port uint16) {
	t.Helper()
	fmod := &openflow.FlowMod{
		Match:    openflow.ExactNWDst(net.ParseIP(ip)),
		Command:  openflow.FlowAdd,
		Priority: 100,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}
	if e := f.Switch(node).Table().Apply(fmod); e != nil {
		t.Fatal(e)
	}
}

// fig1Fabric programs the old Fig.1 policy on a fresh fabric.
func fig1Fabric(t *testing.T) *switchsim.Fabric {
	t.Helper()
	g := topo.Fig1()
	f := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		if _, err := switchsim.NewSwitch(f, switchsim.Config{Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	pm := f.Ports()
	path := topo.Fig1OldPath
	for i := 0; i+1 < len(path); i++ {
		addRule(t, f, path[i], "10.0.0.2", pm.Port(path[i], path[i+1]))
	}
	h2, _ := pm.HostPort(12, "h2")
	addRule(t, f, 12, "10.0.0.2", h2)
	return f
}

func TestProbeCleanDelivery(t *testing.T) {
	f := fig1Fabric(t)
	p := NewProber(f, Config{Ingress: 1, NWDst: nwDst("10.0.0.2"), Waypoint: 3})
	res := p.Probe()
	if res.Outcome != switchsim.ProbeDelivered {
		t.Fatalf("probe = %+v", res)
	}
	st := p.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Violations() != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FirstViolation != nil {
		t.Fatal("clean run recorded a violation")
	}
}

func TestProbeDetectsBypass(t *testing.T) {
	f := fig1Fabric(t)
	// A probe entering at switch 4 rides the old-path tail 4→5→6→12
	// and is delivered without ever crossing waypoint 3 — the prober
	// must flag it as a bypass.
	p := NewProber(f, Config{Ingress: 4, NWDst: nwDst("10.0.0.2"), Waypoint: 3})
	res := p.Probe()
	if res.Outcome != switchsim.ProbeDelivered {
		t.Fatalf("probe = %+v", res)
	}
	st := p.Stats()
	if st.Bypasses != 1 || st.Violations() != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FirstViolation == nil {
		t.Fatal("violation not recorded")
	}
}

func TestProbeDetectsLoopAndDrop(t *testing.T) {
	g := topo.Linear(3)
	f := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		if _, err := switchsim.NewSwitch(f, switchsim.Config{Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	pm := f.Ports()
	p := NewProber(f, Config{Ingress: 1, NWDst: nwDst("10.0.0.2"), TTL: 12})

	// No rules at all: drop at switch 1.
	p.Probe()
	if st := p.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Loop 1↔2.
	addRule(t, f, 1, "10.0.0.2", pm.Port(1, 2))
	addRule(t, f, 2, "10.0.0.2", pm.Port(2, 1))
	p.Probe()
	if st := p.Stats(); st.Loops != 1 || st.Violations() != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProberRunUntilCancelled(t *testing.T) {
	f := fig1Fabric(t)
	p := NewProber(f, Config{Ingress: 1, NWDst: nwDst("10.0.0.2"), Waypoint: 3, Interval: 200 * time.Microsecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	st := p.Run(ctx)
	if st.Sent < 10 {
		t.Fatalf("only %d probes in 30ms at 200µs interval", st.Sent)
	}
	if st.Violations() != 0 {
		t.Fatalf("violations on a static network: %+v", st)
	}
}

func TestProberStartStop(t *testing.T) {
	f := fig1Fabric(t)
	p := NewProber(f, Config{Ingress: 1, NWDst: nwDst("10.0.0.2"), Interval: 100 * time.Microsecond})
	stop := p.Start(context.Background())
	time.Sleep(10 * time.Millisecond)
	st := stop()
	if st.Sent == 0 {
		t.Fatal("no probes sent")
	}
	again := stop // stopping twice must not hang or double-close
	_ = again
}

func TestConfigDefaults(t *testing.T) {
	f := fig1Fabric(t)
	p := NewProber(f, Config{Ingress: 1, NWDst: 1})
	if p.cfg.Interval != 100*time.Microsecond {
		t.Fatalf("default interval = %v", p.cfg.Interval)
	}
	if p.cfg.TTL != 4*12 {
		t.Fatalf("default ttl = %d", p.cfg.TTL)
	}
}
