package planwire

import (
	"net"
	"reflect"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

func testPush(t *testing.T) *Push {
	t.Helper()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	parts := p.Partition()
	sp := &parts[0]
	push := &Push{Job: 42, Interval: 3 * time.Millisecond, Part: sp}
	for range sp.Nodes {
		fm := &openflow.FlowMod{
			Match:    openflow.ExactNWDst(net.IPv4(10, 0, 0, 2)),
			Command:  openflow.FlowModify,
			Priority: 100,
			BufferID: openflow.NoBuffer,
			OutPort:  openflow.PortNone,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: 2}},
		}
		push.Mods = append(push.Mods, []*openflow.FlowMod{fm})
	}
	return push
}

func TestPushRoundTrip(t *testing.T) {
	push := testPush(t)
	data, err := EncodePush(push)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePush(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != push.Job || got.Interval != push.Interval {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Part, push.Part) {
		t.Fatalf("partition mismatch:\n got %+v\nwant %+v", got.Part, push.Part)
	}
	if len(got.Mods) != len(push.Mods) {
		t.Fatalf("%d mod lists, want %d", len(got.Mods), len(push.Mods))
	}
	for i := range got.Mods {
		if len(got.Mods[i]) != 1 || got.Mods[i][0].Match != push.Mods[i][0].Match {
			t.Fatalf("node %d mods mismatch: %+v", i, got.Mods[i])
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
			{Index: 2, ReleasedBy: 5, FlowMods: 1, Started: time.Millisecond, Finished: 2 * time.Millisecond},
			{Index: 9, FlowMods: 2, Started: 3 * time.Millisecond, Finished: 5 * time.Millisecond},
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
	data, err := EncodePush(push)
	if err != nil {
		t.Fatal(err)
	}
	report := (&Report{Job: 1, Switch: 2}).Encode()
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
		{"corrupted partition", asPush, append([]byte{kindPush, 1, 0, 4}, "XXXX"...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.decode(tc.data) == nil {
				t.Fatal("malformed payload decoded without error")
			}
		})
	}
}

func asPush(b []byte) error   { _, err := DecodePush(b); return err }
func asReport(b []byte) error { _, err := DecodeReport(b); return err }

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

func TestStateReportRoundTrip(t *testing.T) {
	cases := []*StateReport{
		{Job: 17, Switch: 4, RulePresent: true, OutPort: 3, AgentDone: []int{0, 2, 5}},
		{Job: 17, Switch: 9, RulePresent: false},
	}
	for _, r := range cases {
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
