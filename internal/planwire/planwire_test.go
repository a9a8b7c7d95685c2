package planwire

import (
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// testMod is a FlowMod forwarding Fig. 1's flow out of port.
func testMod(port uint16) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    openflow.ExactNWDst(net.IPv4(10, 0, 0, 2)),
		Command:  openflow.FlowModify,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}
}

// pushTo builds the push of plan p to switch sw: one FlowMod per node
// sw owns.
func pushTo(p *core.Plan, sw topo.NodeID) *Push {
	push := &Push{Job: 42, Oldest: 40, Interval: 3 * time.Millisecond, Switch: sw, Plan: p}
	for _, nd := range p.Nodes {
		if nd.Switch == sw {
			push.Mods = append(push.Mods, testMod(uint16(len(push.Mods)+2)))
		}
	}
	return push
}

// testPush is the push of Fig. 1's sparse Peacock plan to its first
// node's switch.
func testPush(t *testing.T) *Push {
	t.Helper()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return pushTo(p, p.Nodes[0].Switch)
}

func encodePush(t *testing.T, push *Push) []byte {
	t.Helper()
	data, err := EncodePush(push, core.EncodePlan(push.Plan))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPushRoundTrip(t *testing.T) {
	push := testPush(t)
	data := encodePush(t, push)
	got, err := DecodePush(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != push.Job || got.Oldest != push.Oldest || got.Interval != push.Interval || got.Switch != push.Switch {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Plan, push.Plan) {
		t.Fatalf("plan mismatch:\n got %+v\nwant %+v", got.Plan, push.Plan)
	}
	if len(got.Mods) != len(push.Mods) {
		t.Fatalf("%d flowmods, want %d", len(got.Mods), len(push.Mods))
	}
	for i := range got.Mods {
		if got.Mods[i].Match != push.Mods[i].Match || !reflect.DeepEqual(got.Mods[i].Actions, push.Mods[i].Actions) {
			t.Fatalf("flowmod %d mismatch: %+v", i, got.Mods[i])
		}
	}
	if isPush, isReport := kindOf(data); !isPush || isReport {
		t.Fatal("push payload misclassified")
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Job:      7,
		Switch:   3,
		AcksSent: 4,
		AcksRecv: 2,
		DupAcks:  1,
		Nodes: []NodeReport{
			{Index: 2, ReleasedBy: 5, Started: time.Millisecond, Finished: 2 * time.Millisecond},
			{Index: 9, Started: 3 * time.Millisecond, Finished: 5 * time.Millisecond},
		},
	}
	got, err := DecodeReport(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("report mismatch:\n got %+v\nwant %+v", got, r)
	}
	if isPush, isReport := kindOf(r.Encode()); isPush || !isReport {
		t.Fatal("report payload misclassified")
	}
}

func TestDecodeRejects(t *testing.T) {
	push := testPush(t)
	data := encodePush(t, push)
	extra := *push
	extra.Mods = append(slices.Clone(push.Mods), testMod(9))
	fewer := *push
	fewer.Mods = push.Mods[:len(push.Mods)-1]
	young := *push
	young.Oldest = push.Job + 1
	report := (&Report{Job: 1, Switch: 2}).Encode()
	// A job id past math.MaxInt: as an int it would wrap to -1 (the
	// push's oldest too, so that the push is otherwise valid).
	lastJob := *push
	lastJob.Job, lastJob.Oldest = -1, -1
	cases := []struct {
		name   string
		decode func([]byte) error
		data   []byte
	}{
		{"empty push", asPush, nil},
		{"push as report", asReport, data},
		{"report as push", asPush, report},
		{"truncated push", asPush, data[:len(data)-1]},
		{"trailing push", asPush, append(append([]byte{}, data...), 0xFF)},
		{"truncated report", asReport, report[:len(report)-1]},
		{"trailing report", asReport, append(append([]byte{}, report...), 0xFF)},
		{"corrupted plan", asPush, append([]byte{kindPush, 1, 0, 0, 7, 4}, "XXXX"...)},
		{"one flowmod more than owned nodes", asPush, encodePush(t, &extra)},
		{"one flowmod fewer than owned nodes", asPush, encodePush(t, &fewer)},
		{"switch owns no node", asPush, encodePush(t, &Push{Job: 1, Switch: 99, Plan: push.Plan})},
		{"oldest above job", asPush, encodePush(t, &young)},
		{"non-minimal job in a push", asPush, nonMinimalJob(t, data)},
		{"non-minimal job in a report", asReport, nonMinimalJob(t, report)},
		{"non-minimal job in a state query", asStateQuery, nonMinimalJob(t, (&StateQuery{Job: 17, NWDst: 1}).Encode())},
		{"non-minimal job in a state report", asStateReport, nonMinimalJob(t, stateReports()[0].Encode())},
		{"push of job 2^64-1", asPush, encodePush(t, &lastJob)},
		{"report of job 2^64-1", asReport, (&Report{Job: -1, Switch: 2}).Encode()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.decode(tc.data) == nil {
				t.Fatal("malformed payload decoded without error")
			}
		})
	}
	t.Run("nil flowmod", func(t *testing.T) {
		nilMod := *push
		nilMod.Mods = append(slices.Clone(push.Mods), nil)
		if _, err := EncodePush(&nilMod, core.EncodePlan(push.Plan)); err == nil {
			t.Fatal("a push with a nil flowmod encoded without error")
		}
	})
}

func asPush(b []byte) error        { _, err := DecodePush(b); return err }
func asReport(b []byte) error      { _, err := DecodeReport(b); return err }
func asStateQuery(b []byte) error  { _, err := DecodeStateQuery(b); return err }
func asStateReport(b []byte) error { _, err := DecodeStateReport(b); return err }

// nonMinimalJob rewrites a payload's one-byte job varint, which follows
// its kind byte, in two bytes: the same value in a second byte form.
func nonMinimalJob(t *testing.T, data []byte) []byte {
	t.Helper()
	if data[1] >= 0x80 {
		t.Fatalf("job varint %#x is not one byte", data[1])
	}
	return append([]byte{data[0], data[1] | 0x80, 0}, data[2:]...)
}

func TestStateQueryRoundTrip(t *testing.T) {
	q := &StateQuery{Job: 17, NWDst: 0x0a000002}
	data := q.Encode()
	if !IsStateQuery(data) || IsStateReport(data) {
		t.Fatalf("kind peek wrong for state query")
	}
	if push, report := kindOf(data); push || report {
		t.Fatalf("state query misidentified as push/report")
	}
	got, err := DecodeStateQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("got %+v want %+v", got, q)
	}
	if _, err := DecodeStateQuery(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeStateQuery(data[:len(data)-1]); err == nil {
		t.Fatal("truncated query accepted")
	}
}

// stateReports are a report of a two-phase job's switch, holding the
// flow's untagged rule and its tagged copy, and one of an empty table.
func stateReports() []*StateReport {
	flow := openflow.ExactNWDst(net.IPv4(10, 0, 0, 2))
	tagged := flow
	tagged.Wildcards &^= openflow.WildcardDLVLAN
	tagged.DLVLAN = 2016
	return []*StateReport{
		{Job: 17, Switch: 4, Rules: []Rule{
			{Match: tagged, Port: 2, Tag: openflow.VLANNone},
			{Match: flow, Port: 3, Tag: 2016},
		}, AgentDone: []int{0, 2, 5}},
		{Job: 17, Switch: 9},
	}
}

func TestStateReportRoundTrip(t *testing.T) {
	for _, r := range stateReports() {
		data := r.Encode()
		if !IsStateReport(data) || IsStateQuery(data) {
			t.Fatalf("kind peek wrong for state report")
		}
		got, err := DecodeStateReport(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("got %+v want %+v", got, r)
		}
		if _, err := DecodeStateReport(append(data, 0)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
		if _, err := DecodeStateReport(data[:len(data)-1]); err == nil {
			t.Fatal("truncated report accepted")
		}
	}
}

// kindOf peeks a payload's discriminator without decoding it.
func kindOf(data []byte) (push, report bool) {
	return len(data) > 0 && data[0] == kindPush, len(data) > 0 && data[0] == kindReport
}
