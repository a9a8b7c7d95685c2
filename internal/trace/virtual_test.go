package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/openflow"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// virtualFig1Fabric builds the Fig.1 data plane on a virtual clock with
// the old policy installed directly into the flow tables (no TCP, no
// goroutines — everything that follows happens inside the sim's event
// loop).
func virtualFig1Fabric(t *testing.T, sim *simclock.Sim) *switchsim.Fabric {
	t.Helper()
	g := topo.Fig1()
	fabric := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		if _, err := switchsim.NewSwitch(fabric, switchsim.Config{Node: n, Clock: sim}); err != nil {
			t.Fatal(err)
		}
	}
	match := openflow.ExactNWDst(fig1FlowIP())
	ports := fabric.Ports()
	path := topo.Fig1OldPath
	for i := 0; i+1 < len(path); i++ {
		applyMod(t, fabric, path[i], match, ports.Port(path[i], path[i+1]))
	}
	h2, _ := ports.HostPort(path.Dst(), "h2")
	applyMod(t, fabric, path.Dst(), match, h2)
	return fabric
}

func fig1FlowIP() []byte { return []byte{10, 0, 0, 2} }

func applyMod(t *testing.T, f *switchsim.Fabric, node topo.NodeID, match openflow.Match, port uint16) {
	t.Helper()
	if port == 0 {
		t.Fatalf("no port wired out of switch %d", node)
	}
	fm := &openflow.FlowMod{
		Match:    match,
		Command:  openflow.FlowAdd,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}
	if oferr := f.Switch(node).Table().Apply(fm); oferr != nil {
		t.Fatalf("applying flowmod at %d: %v", node, oferr.Error())
	}
}

// runVirtualLiveUpdate executes the WayUp Fig.1 update entirely in
// virtual time: per round, every switch's FlowMod takes effect at a
// seeded random instant; barriers separate rounds (round r+1's
// deliveries start after round r's last); a probe fires every 50µs of
// virtual time throughout. It returns the probe stats plus a
// bit-exact event log of every rule install and every probe.
func runVirtualLiveUpdate(t *testing.T, seed int64) (Stats, string) {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	fabric := virtualFig1Fabric(t, sim)
	src := netem.NewSourceClock(seed, sim)
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	match := openflow.ExactNWDst(fig1FlowIP())
	ports := fabric.Ports()
	jitter := netem.Uniform{Min: 0, Max: 3 * time.Millisecond}
	install := netem.Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond}

	// Materialize every delivery upfront (sampling order is the
	// deterministic round order); rounds barrier on the previous
	// round's slowest install.
	base := time.Duration(0)
	for r, round := range sched.Layers() {
		roundEnd := base
		for _, v := range round {
			v := v
			at := base + src.Sample(jitter) + src.Sample(install)
			if at > roundEnd {
				roundEnd = at
			}
			r := r
			sim.Schedule(at, func() {
				succ, _ := in.NewSucc(v)
				applyMod(t, fabric, v, match, ports.Port(v, succ))
				fmt.Fprintf(&log, "t=%v round=%d install sw=%d\n", sim.Now().Sub(simclock.Epoch), r, v)
			})
		}
		base = roundEnd
	}
	end := base + time.Millisecond // trailing window after the last install

	prober := NewProber(fabric, Config{
		Ingress:  1,
		NWDst:    0x0a000002,
		Waypoint: topo.Fig1Waypoint,
		Interval: 50 * time.Microsecond,
		Clock:    sim,
	})
	var tick func()
	tick = func() {
		res := prober.Probe()
		fmt.Fprintf(&log, "t=%v probe %s %v\n", sim.Now().Sub(simclock.Epoch), res.Outcome, res.Visited)
		if sim.Now().Before(simclock.Epoch.Add(end)) {
			sim.Schedule(50*time.Microsecond, tick)
		}
	}
	sim.Schedule(0, tick)
	sim.Run()
	return prober.Stats(), log.String()
}

// TestVirtualLiveUpdateBitIdentical is the regression test for the
// wall-clock coupling that used to live in Prober.Run: a traced live
// update on the virtual clock is bit-identical across two runs with
// the same seed — same probes, same outcomes, same timestamps, same
// install order.
func TestVirtualLiveUpdateBitIdentical(t *testing.T) {
	const seed = 42
	st1, log1 := runVirtualLiveUpdate(t, seed)
	st2, log2 := runVirtualLiveUpdate(t, seed)
	if log1 != log2 {
		t.Fatalf("same seed produced different event logs:\nrun1:\n%s\nrun2:\n%s", log1, log2)
	}
	if st1.Sent != st2.Sent || st1.Delivered != st2.Delivered ||
		st1.Bypasses != st2.Bypasses || st1.Loops != st2.Loops || st1.Drops != st2.Drops {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	if st1.Sent == 0 || st1.Delivered == 0 {
		t.Fatalf("virtual run sent %d probes, delivered %d — probing never ran", st1.Sent, st1.Delivered)
	}
	// WayUp preserves waypoint enforcement in every interleaving, and
	// this one is pinned by the seed.
	if st1.Bypasses != 0 {
		t.Fatalf("wayup bypassed the waypoint under the virtual clock: %+v", st1)
	}
}

// TestVirtualProberScheduleOn pins the deterministic event-driven
// prober: same seed (here: same schedule of installs), same stats,
// twice.
func TestVirtualProberScheduleOn(t *testing.T) {
	run := func() Stats {
		sim := simclock.NewSim(time.Time{})
		fabric := virtualFig1Fabric(t, sim)
		p := NewProber(fabric, Config{
			Ingress:  1,
			NWDst:    0x0a000002,
			Waypoint: topo.Fig1Waypoint,
			Interval: 100 * time.Microsecond,
			Clock:    sim,
		})
		until := sim.Now().Add(5 * time.Millisecond)
		var tick func()
		tick = func() {
			p.Probe()
			if sim.Now().Add(p.cfg.Interval).Before(until) {
				sim.Schedule(p.cfg.Interval, tick)
			}
		}
		sim.Schedule(0, tick)
		sim.Run()
		return p.Stats()
	}
	s1, s2 := run(), run()
	if s1.Sent != s2.Sent || s1.Delivered != s2.Delivered || s1.Violations() != s2.Violations() {
		t.Fatalf("ScheduleOn stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Sent != 50 {
		t.Fatalf("expected 50 probes over 5ms at 100µs, got %d", s1.Sent)
	}
	if s1.Violations() != 0 {
		t.Fatalf("steady old policy should deliver via waypoint: %+v", s1)
	}
}
