// Loopfreemigration shows why relaxing loop freedom pays: on the
// nested route-migration family, strong loop freedom is forced through
// a linear chain of dependent rounds while Peacock's relaxed notion
// finishes in three — and then executes the Peacock schedule live over
// TCP, measuring per-round barrier times.
//
//	go run ./examples/loopfreemigration
package main

import (
	"fmt"
	"log"
	"time"

	"tsu/internal/core"
	"tsu/internal/experiments"
	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func main() {
	fmt.Println("rounds needed: relaxed (Peacock) vs strong (greedy) loop freedom")
	tbl := metrics.NewTable("n", core.AlgoPeacock, core.AlgoGreedySLF)
	for _, n := range []int{10, 22, 46, 94, 190} {
		ti := topo.Nested(n)
		in := core.MustInstance(ti.Old, ti.New, 0)
		p, err := core.ScheduleByName(in, core.AlgoPeacock, 0)
		if err != nil {
			log.Fatal(err)
		}
		g, err := core.ScheduleByName(in, core.AlgoGreedySLF, 0)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(n, p.NumRounds(), g.NumRounds())
	}
	fmt.Println(tbl)

	// Execute the n=22 migration live.
	ti := topo.Nested(22)
	in := core.MustInstance(ti.Old, ti.New, 0)
	sched, err := core.ScheduleByName(in, core.AlgoPeacock, 0)
	if err != nil {
		log.Fatal(err)
	}
	if rep := verify.Plan(in, core.PlanFromSchedule(sched), sched.Guarantees, verify.Options{}); !rep.OK() {
		log.Fatalf("schedule failed verification: %v", rep)
	}

	bed, err := experiments.NewBed(ti.Graph, experiments.BedConfig{
		Jitter:  netem.Uniform{Min: 0, Max: time.Millisecond},
		Install: netem.Fixed(time.Millisecond),
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bed.Close()
	if err := bed.InstallOldPolicy(ti.Old); err != nil {
		log.Fatal(err)
	}
	job, err := bed.RunUpdateAlgorithm(in, sched.Algorithm, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live migration of %d switches (n=22) with %s:\n", in.NumPending(), sched.Algorithm)
	for _, rt := range job.Rounds {
		fmt.Printf("  round %d: %2d switches in %v\n", rt.Round, len(rt.Switches), rt.Duration().Round(10*time.Microsecond))
	}
	fmt.Printf("  total: %v\n", job.TotalDuration().Round(10*time.Microsecond))
}
