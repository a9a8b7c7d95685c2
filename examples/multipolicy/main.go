// Multipolicy updates several routing policies together — the paper's
// pointer to "more work on multiple policies" (DSN'16, SIGMETRICS'16).
// Flows are independent on the wire (distinct destination addresses),
// so each keeps its scheduler's transient guarantee. The example
// computes the joint schedule (core.JointUpdate, as experiment E9 does)
// and what it would buy — round economy: the flows' rounds in one
// barrier cadence, a switch's FlowMods of a round together — without
// executing it; the controller runs each flow as its own job.
//
//	go run ./examples/multipolicy
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func main() {
	rng := rand.New(rand.NewSource(2016))
	const flows = 4
	instances := make([]*core.Instance, 0, flows)
	for len(instances) < flows {
		ti := topo.RandomTwoPath(rng, 16, false)
		in := core.MustInstance(ti.Old, ti.New, 0)
		if in.NumPending() == 0 {
			continue
		}
		instances = append(instances, in)
	}

	joint, err := core.NewJointUpdate(instances, core.MustScheduler(core.AlgoPeacock), 0)
	if err != nil {
		log.Fatal(err)
	}

	for f, in := range joint.Instances {
		p := joint.Plans[f]
		fmt.Printf("flow %d (10.0.%d.2): %d pending switches, %d rounds — %v\n",
			f, f, in.NumPending(), p.Depth(), p.Layers())
		if rep := verify.Plan(in, p, p.Guarantees, verify.Options{}); !rep.OK() {
			log.Fatalf("flow %d failed verification: %v", f, rep)
		}
	}

	fmt.Printf("\njoint rounds: %d (sequential execution would need %d)\n",
		joint.NumRounds(), joint.SequentialRounds())
	fmt.Printf("total FlowMods: %d\n\n", joint.TotalFlowMods())

	fmt.Println("per-round switch batching (switch ← flows updating it):")
	for i := 0; i < joint.NumRounds(); i++ {
		round := joint.Round(i)
		fmt.Printf("  round %d: %d switches touched\n", i, len(round))
	}

	fmt.Println("\nbusiest switches (rounds in which each receives FlowMods):")
	tbl := metrics.NewTable("switch", "touches")
	for i, tc := range joint.TouchSummary() {
		if i >= 5 {
			break
		}
		tbl.AddRow(tc.Switch, tc.Touches)
	}
	fmt.Println(tbl)
}
