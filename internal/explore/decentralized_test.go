package explore

import (
	"reflect"
	"testing"

	"tsu/internal/core"
	"tsu/internal/verify"
)

// TestDecentralizedBitIdentical is the decentralized-execution
// equivalence contract, pinned for every registered scheduler on Fig.1
// (with and without waypoint) and a seeded fat-tree reroute, for both
// the layered and the sparse plan shape:
//
//	(a) Partition/AssemblePlan is lossless: shipping a plan to the
//	    switches as per-switch partitions and reassembling it yields
//	    the identical DAG — the happens-before edges, not the ack
//	    relayer, define the partial order, so the reachable transient
//	    states (order ideals) are unchanged by decentralization.
//	(b) The verifier's verdict on the reassembled plan is bit-identical
//	    to the original's.
//	(c) The explorer's fingerprint on the reassembled plan is
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

					// (a) Partition round trip is the identity.
					rebuilt, err := core.AssemblePlan(p.Partition())
					if err != nil {
						t.Fatalf("reassembling partitions: %v", err)
					}
					if !reflect.DeepEqual(rebuilt, p) {
						t.Fatalf("partition round trip diverged:\n got %+v\nwant %+v", rebuilt, p)
					}

					// (b) Verifier verdicts: bit-identical reports on the
					// reassembled plan.
					vopts := verify.Options{Seed: 7}
					va := verify.Plan(in, p, p.Guarantees, vopts)
					vb := verify.Plan(in, rebuilt, p.Guarantees, vopts)
					if va.String() != vb.String() || va.OK() != vb.OK() || va.Exact() != vb.Exact() {
						t.Fatalf("verifier diverged:\n original    %s\n reassembled %s", va, vb)
					}

					// (c) Explorer fingerprints, exhaustive: reassembly cannot
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
