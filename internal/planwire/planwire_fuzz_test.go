package planwire

import (
	"bytes"
	"reflect"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// FuzzDecodePayload fuzzes every planwire decoder — DecodePush,
// DecodeReport, DecodeStateQuery and DecodeStateReport — from a corpus
// of real pushes (every switch of every registered scheduler's Fig. 1
// plan, layered and sparse), one payload of each other kind but the
// state report, and the state reports of TestStateReportRoundTrip. No
// decode may panic, and a successful decode must re-encode to a payload
// that decodes to an equal value. A report and a state query re-encode
// to the very bytes decoded: every value has one byte form. (A push
// carries FlowMods and a state report matches, whose pad bytes the
// OpenFlow codec reads as don't-care; FuzzPartitionRoundTrip holds the
// bytes of pushes the controller writes.)
func FuzzDecodePayload(f *testing.F) {
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	for _, name := range core.Names() {
		for _, sparse := range []bool{false, true} {
			p, err := core.PlanByName(in, name, 0, sparse)
			if err != nil {
				continue
			}
			enc := core.EncodePlan(p)
			seen := map[topo.NodeID]bool{}
			for _, nd := range p.Nodes {
				if seen[nd.Switch] {
					continue
				}
				seen[nd.Switch] = true
				data, err := EncodePush(pushTo(p, nd.Switch), enc)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(data)
			}
		}
	}
	f.Add((&Report{Job: 7, Switch: 3, AcksSent: 2, Nodes: []NodeReport{{Index: 2, ReleasedBy: 5, Finished: 9}}}).Encode())
	f.Add((&StateQuery{Job: 17, NWDst: 0x0a000002}).Encode())
	for _, r := range stateReports() {
		f.Add(r.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodePush(data); err == nil {
			enc, err := EncodePush(p, core.EncodePlan(p.Plan))
			if err != nil {
				t.Fatalf("re-encoding a decoded push: %v", err)
			}
			roundTrip(t, p, enc, DecodePush)
		}
		if r, err := DecodeReport(data); err == nil {
			sameBytes(t, r.Encode(), data)
		}
		if q, err := DecodeStateQuery(data); err == nil {
			sameBytes(t, q.Encode(), data)
		}
		if r, err := DecodeStateReport(data); err == nil {
			roundTrip(t, r, r.Encode(), DecodeStateReport)
		}
	})
}

// roundTrip decodes enc, the re-encoding of want, and requires it to
// equal want.
func roundTrip[T any](t *testing.T, want *T, enc []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	got, err := decode(enc)
	if err != nil {
		t.Fatalf("re-decoding %x: %v", enc, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode→encode→decode diverged:\n got %+v\nwant %+v", got, want)
	}
}

// sameBytes requires a decoded payload's re-encoding enc to be the
// payload itself.
func sameBytes(t *testing.T, enc, data []byte) {
	t.Helper()
	if !bytes.Equal(enc, data) {
		t.Fatalf("decode→encode not identity:\n in  %x\n out %x", data, enc)
	}
}
