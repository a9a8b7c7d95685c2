package core

import (
	"bytes"
	"testing"

	"tsu/internal/topo"
)

// FuzzPlanRoundTrip fuzzes the plan wire codec: DecodePlan must never
// panic, and because the encoding is canonical, every successful
// decode must re-encode to the identical bytes (and decode again to
// the identical plan).
func FuzzPlanRoundTrip(f *testing.F) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	for _, name := range Names() {
		if s, err := MustScheduler(name).Plan(in, 0); err == nil {
			f.Add(EncodePlan(s))
		}
		if p, err := PlanByName(in, name, 0, true); err == nil {
			f.Add(EncodePlan(p))
		}
	}
	f.Add(EncodePlan(&Plan{Algorithm: "empty"}))
	f.Add([]byte("TSUP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlan(data)
		if err != nil {
			return
		}
		enc := EncodePlan(p)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode→encode not identity:\n in  %x\n out %x", data, enc)
		}
		p2, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodePlan(p2), enc) {
			t.Fatal("second round trip diverged")
		}
	})
}
