package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// FuzzPartitionRoundTrip fuzzes a switch's partition of a plan as it
// travels: the push of the whole plan to one switch, with one FlowMod
// per node that switch owns. For any plan DecodePlan accepts and any
// switch, the push must round-trip through planwire to the same plan,
// switch and FlowMod count and re-encode to the very bytes decoded, and
// a push to a switch that owns no node must be refused. FuzzDecodePayload fuzzes the push bytes themselves;
// this target reaches every decodable plan, whose pushes the byte
// fuzzer would have to match FlowMod for node to find.
func FuzzPartitionRoundTrip(f *testing.F) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	var last []byte
	for _, name := range core.Names() {
		for _, sparse := range []bool{false, true} {
			p, err := core.PlanByName(in, name, 0, sparse)
			if err != nil {
				continue
			}
			last = core.EncodePlan(p)
			for _, sw := range switchesOf(p) {
				f.Add(last, uint64(sw))
			}
		}
	}
	f.Add(last, uint64(7)) // Fig. 1 has no switch 7
	f.Add([]byte("TSUP"), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, sw uint64) {
		p, err := core.DecodePlan(data)
		if err != nil {
			return
		}
		push := &planwire.Push{Job: 1, Switch: topo.NodeID(sw), Plan: p}
		for i, nd := range p.Nodes {
			if nd.Switch == push.Switch {
				push.Mods = append(push.Mods, &openflow.FlowMod{
					Command: openflow.FlowModify,
					Actions: []openflow.Action{openflow.ActionOutput{Port: uint16(i)}},
				})
			}
		}
		enc, err := planwire.EncodePush(push, data)
		if err != nil {
			t.Fatalf("encoding the push to %d: %v", sw, err)
		}
		got, err := planwire.DecodePush(enc)
		if len(push.Mods) == 0 {
			if err == nil {
				t.Fatalf("a push to %d, which owns no node, decoded", sw)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoding the push to %d: %v", sw, err)
		}
		if got.Switch != push.Switch || len(got.Mods) != len(push.Mods) {
			t.Fatalf("push to %d with %d mods came back to %d with %d", sw, len(push.Mods), got.Switch, len(got.Mods))
		}
		if !reflect.DeepEqual(got.Plan, p) {
			t.Fatalf("plan changed on the wire to %d:\n got %+v\nwant %+v", sw, got.Plan, p)
		}
		again, err := planwire.EncodePush(got, core.EncodePlan(got.Plan))
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("the push to %d re-encodes (err %v) to\n %x\nnot\n %x", sw, err, again, enc)
		}
	})
}

// switchesOf lists the switches that own a node of p, ascending.
func switchesOf(p *core.Plan) []topo.NodeID {
	var sws []topo.NodeID
	for _, nd := range p.Nodes {
		sws = append(sws, nd.Switch)
	}
	slices.Sort(sws)
	return slices.Compact(sws)
}
