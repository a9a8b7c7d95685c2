//go:build !race

package journal

import "testing"

// Decoding a record into a warmed Record allocates nothing: it is what
// Open's fold runs on every frame of a restart's replay.
func TestJournalDecodeAllocs(t *testing.T) {
	for _, rec := range []Record{
		{Kind: KindDispatched, Job: 1, Node: 3},
		{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{4, 5, 9}, Confirmed: []int{0, 1, 2, 3}},
		{Kind: KindTerminal, Job: 1, Error: "switch s4 unreachable", Confirmed: []int{6, 7}},
	} {
		payload := appendPayload(nil, &rec)
		var got Record
		if err := decodeInto(&got, payload, false); err != nil { // warm got's lists
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := decodeInto(&got, payload, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v decode allocates %.1f/op, want 0", rec.Kind, allocs)
		}
	}
}
