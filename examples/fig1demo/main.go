// Fig1demo reproduces the paper's demo end to end, in process: the
// twelve-switch Figure 1 topology, a controller and a switch fleet
// talking OpenFlow over loopback TCP with a jittery control channel,
// probe traffic from h1 toward h2 throughout, and the WayUp update
// executed in barrier-delimited rounds — then the same update as a
// one-shot, to show what the rounds are protecting against.
//
//	go run ./examples/fig1demo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tsu/internal/core"
	"tsu/internal/experiments"
	"tsu/internal/netem"
	"tsu/internal/topo"
	"tsu/internal/trace"
)

func main() {
	fmt.Println("Figure 1: twelve switches, h1@s1, h2@s12, waypoint s3")
	fmt.Printf("  old route (solid):  %v\n", topo.Fig1OldPath)
	fmt.Printf("  new route (dashed): %v\n\n", topo.Fig1NewPath)

	for _, algo := range []string{core.AlgoWayUp, "two-phase", core.AlgoOneShot} {
		if err := runOnce(algo); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

func runOnce(algo string) error {
	bed, err := experiments.NewBed(topo.Fig1(), experiments.BedConfig{
		Jitter:  netem.Uniform{Min: 0, Max: 3 * time.Millisecond},
		Install: netem.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		Seed:    42,
	})
	if err != nil {
		return err
	}
	defer bed.Close()
	if err := bed.InstallOldPolicy(topo.Fig1OldPath); err != nil {
		return err
	}

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)

	prober := trace.NewProber(bed.Fabric, trace.Config{
		Ingress:  1,
		NWDst:    experiments.FlowNWDst,
		Waypoint: topo.Fig1Waypoint,
		Interval: 50 * time.Microsecond,
	})
	stop := prober.Start(context.Background())

	// Everything flows through the /v1 API client, two-phase included
	// (the tagging fallback: per-packet consistency via a prepare round
	// of VLAN-tagged rules and an atomic ingress flip).
	if algo == "two-phase" {
		fmt.Printf("%s: prepare tagged rules, commit ingress\n", algo)
	} else {
		var plan *core.Plan
		plan, err = core.PlanByName(in, algo, 0, false)
		if err != nil {
			stop()
			return err
		}
		fmt.Printf("%s: %d round(s)\n", algo, plan.Depth())
	}
	job, err := bed.RunUpdateAlgorithm(in, algo, 0)
	if err != nil {
		stop()
		return err
	}
	stats := stop()

	for _, rt := range job.Rounds {
		fmt.Printf("  round %d: switches %v, %v (FlowMods sent, barriers confirmed)\n",
			rt.Round, rt.Switches, rt.Duration().Round(10*time.Microsecond))
	}
	fmt.Printf("  total update time: %v\n", job.TotalDuration().Round(10*time.Microsecond))
	fmt.Printf("  probes during update: %d sent, %d delivered, %d waypoint bypasses, %d loops, %d drops\n",
		stats.Sent, stats.Delivered, stats.Bypasses, stats.Loops, stats.Drops)
	if stats.Violations() == 0 {
		fmt.Println("  transiently secure: every delivered probe crossed the firewall")
	} else if stats.FirstViolation != nil {
		fmt.Printf("  VIOLATION, e.g. probe path %v (%s)\n",
			stats.FirstViolation.Visited, stats.FirstViolation.Outcome)
	}

	final := bed.Fabric.Inject(1, experiments.FlowNWDst, 64)
	fmt.Printf("  final forwarding path: %v (%s)\n", final.Visited, final.Outcome)
	return nil
}
