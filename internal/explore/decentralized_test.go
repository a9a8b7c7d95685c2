package explore

import (
	"net"
	"reflect"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// TestDecentralizedBitIdentical is the decentralized-execution
// equivalence contract, pinned for every registered scheduler on Fig.1
// (with and without waypoint) and a seeded fat-tree reroute, for both
// the layered and the sparse plan shape:
//
//	(a) The push is lossless: every switch of the plan receives it
//	    whole — DecodePush(EncodePush(push)) yields the identical DAG
//	    and that switch's FlowMods — and the happens-before edges, not
//	    the ack relayer, define the partial order, so the reachable
//	    transient states (order ideals) are unchanged by
//	    decentralization.
//	(b) The verifier's verdict on the decoded plan is bit-identical to
//	    the original's.
//	(c) The explorer's fingerprint on the decoded plan is
//	    bit-identical to the original's, exhaustive and sampled.
func TestDecentralizedBitIdentical(t *testing.T) {
	for caseName, in := range planTestInstances(t) {
		for _, name := range core.Names() {
			for _, sparse := range []bool{false, true} {
				label := "layered"
				if sparse {
					label = "sparse"
				}
				t.Run(caseName+"/"+name+"/"+label, func(t *testing.T) {
					p, err := core.PlanByName(in, name, 0, sparse)
					if err != nil {
						t.Skipf("%s declined: %v", name, err)
					}

					// (a) Every switch's push round trip is the identity.
					rebuilt := pushRoundTrip(t, p)

					// (b) Verifier verdicts: bit-identical reports on the
					// decoded plan.
					vopts := verify.Options{Seed: 7}
					va := verify.Plan(in, p, p.Guarantees, vopts)
					vb := verify.Plan(in, rebuilt, p.Guarantees, vopts)
					if va.String() != vb.String() || va.OK() != vb.OK() || va.Exact() != vb.Exact() {
						t.Fatalf("verifier diverged:\n original %s\n decoded  %s", va, vb)
					}

					// (c) Explorer fingerprints, exhaustive: the wire cannot
					// change the enumerated ideal space.
					base := Options{Seed: 11, MaxExhaustive: 14}
					adv := base
					ra, err := Plan(in, p, base)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := Plan(in, rebuilt, adv)
					if err != nil {
						t.Fatal(err)
					}
					if ra.Fingerprint() != rb.Fingerprint() {
						t.Fatalf("exhaustive fingerprint diverged under peer delays:\n off:\n%s\n on:\n%s",
							ra.Fingerprint(), rb.Fingerprint())
					}

					// (c') Sampled: force the sampling path with a tiny
					// exhaustive budget; verdict and counters must agree.
					sbase := Options{Seed: 11, MaxExhaustive: 1, Samples: 64}
					sadv := sbase
					sa, err := Plan(in, p, sbase)
					if err != nil {
						t.Fatal(err)
					}
					sb, err := Plan(in, rebuilt, sadv)
					if err != nil {
						t.Fatal(err)
					}
					if sa.OK() != sb.OK() {
						t.Fatalf("sampled verdict diverged under peer delays: off=%t on=%t", sa.OK(), sb.OK())
					}
					if sa.OK() && sa.Fingerprint() != sb.Fingerprint() {
						t.Fatalf("sampled fingerprint diverged under peer delays:\n off:\n%s\n on:\n%s",
							sa.Fingerprint(), sb.Fingerprint())
					}
				})
			}
		}
	}
}

// pushRoundTrip pushes p to every switch of it, through EncodePush and
// DecodePush, and requires each switch to receive p itself and its own
// FlowMods, one per node it owns. It returns a decoded plan.
func pushRoundTrip(t *testing.T, p *core.Plan) *core.Plan {
	t.Helper()
	enc := core.EncodePlan(p)
	var decoded *core.Plan
	for _, sw := range planSwitches(p) {
		push := &planwire.Push{Job: 1, Switch: sw}
		for i, nd := range p.Nodes {
			if nd.Switch == sw {
				push.Mods = append(push.Mods, &openflow.FlowMod{
					Match:    openflow.ExactNWDst(net.IPv4(10, 0, 0, 2)),
					Command:  openflow.FlowModify,
					Priority: uint16(i),
					BufferID: openflow.NoBuffer,
					OutPort:  openflow.PortNone,
					Actions:  []openflow.Action{openflow.ActionOutput{Port: uint16(sw)}},
				})
			}
		}
		data, err := planwire.EncodePush(push, enc)
		if err != nil {
			t.Fatalf("encoding the push to %d: %v", sw, err)
		}
		got, err := planwire.DecodePush(data)
		if err != nil {
			t.Fatalf("decoding the push to %d: %v", sw, err)
		}
		if !reflect.DeepEqual(got.Plan, p) {
			t.Fatalf("push to %d carries another plan:\n got %+v\nwant %+v", sw, got.Plan, p)
		}
		if len(got.Mods) != len(push.Mods) {
			t.Fatalf("push to %d carries %d flowmods, want %d", sw, len(got.Mods), len(push.Mods))
		}
		for k, fm := range got.Mods {
			if want := push.Mods[k]; fm.Priority != want.Priority || fm.Match != want.Match || !reflect.DeepEqual(fm.Actions, want.Actions) {
				t.Fatalf("push to %d: flowmod %d = %+v, want %+v", sw, k, fm, want)
			}
		}
		decoded = got.Plan
	}
	return decoded
}

// planSwitches lists the switches owning a node of p, ascending.
func planSwitches(p *core.Plan) []topo.NodeID {
	var out []topo.NodeID
	for _, nd := range p.Nodes {
		out = append(out, nd.Switch)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
