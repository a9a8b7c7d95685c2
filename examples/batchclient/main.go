// Batchclient demonstrates the /v1 API surface end to end through the
// typed client SDK: a controller and a 16-switch grid fabric come up
// in process, two disjoint flows are dry-run verified, submitted as
// one batch, and watched as Server-Sent-Event streams while the
// conflict-aware engine executes them concurrently. Flow A executes
// decentralized — the switches release each other peer-to-peer from
// one pushed copy of the plan each — while flow B stays controller-driven,
// and the final job statuses show the message-count difference.
//
//	go run ./examples/batchclient
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"tsu/internal/api"
	"tsu/internal/experiments"
	"tsu/internal/netem"
	"tsu/internal/topo"
)

func main() {
	// Grid rows: 1-4 / 5-8 / 9-12 / 13-16. Flow A rides rows 1-2,
	// flow B rows 3-4 — disjoint switch sets, so the engine overlaps
	// their rounds. Flow A runs its sparse plan decentralized: two
	// control messages per switch, dependency acks switch-to-switch.
	flowA := api.FlowUpdate{
		OldPath: []uint64{1, 2, 3, 4}, NewPath: []uint64{1, 5, 6, 7, 8, 4},
		NWDst: "10.0.0.2", Algorithm: "peacock", Plan: "sparse", Mode: "decentralized",
	}
	flowB := api.FlowUpdate{
		OldPath: []uint64{9, 10, 11, 12}, NewPath: []uint64{9, 13, 14, 15, 16, 12},
		NWDst: "10.0.0.9", Algorithm: "peacock",
	}

	bed, err := experiments.NewBed(topo.Grid(4, 4), experiments.BedConfig{
		Install: netem.Fixed(2 * time.Millisecond),
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bed.Close()
	c := bed.Client
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Old policies first, through the API.
	for _, f := range []api.FlowUpdate{flowA, flowB} {
		if err := c.InstallPolicy(ctx, api.PolicyRequest{Path: f.OldPath, NWDst: f.NWDst}); err != nil {
			log.Fatal(err)
		}
	}

	// Dry-run verification: schedules plus transient guarantees, no
	// switch touched.
	vr, err := c.Verify(ctx, api.VerifyRequest{
		Updates:    []api.FlowUpdate{flowA, flowB},
		Properties: []string{"no-blackhole", "relaxed-lf"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range vr.Results {
		fmt.Printf("flow %d: %s over %d rounds, %s: ok=%v (exact=%v)\n",
			i, res.Algorithm, len(res.Rounds), res.Properties, res.OK, res.Exact)
	}

	// The batch proper.
	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: []api.FlowUpdate{flowA, flowB}})
	if err != nil {
		log.Fatal(err)
	}

	// Watch both jobs' SSE streams while they overlap.
	var wg sync.WaitGroup
	for _, acc := range resp.Updates {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			events, err := c.Watch(ctx, id)
			if err != nil {
				log.Printf("watch %d: %v", id, err)
				return
			}
			for ev := range events {
				switch ev.Type {
				case api.EventRound:
					fmt.Printf("job %d round %d: %d switches in %v\n",
						id, ev.Round.Round, len(ev.Round.Switches), ev.Round.Duration())
				case api.EventDone:
					fmt.Printf("job %d done in %v\n", id, time.Duration(ev.TotalMicros)*time.Microsecond)
				case api.EventFailed:
					fmt.Printf("job %d FAILED: %s\n", id, ev.Error)
				}
			}
		}(acc.ID)
	}
	wg.Wait()

	// Message-count breakdown: flow A's decentralized job exchanged
	// exactly two control messages per switch and pushed the dependency
	// traffic into the fabric; flow B paid the control channel per
	// install.
	for _, acc := range resp.Updates {
		st, err := c.Job(ctx, acc.ID)
		if err != nil {
			log.Fatal(err)
		}
		mode := st.Mode
		if mode == "" {
			mode = "controller"
		}
		if st.Messages != nil {
			fmt.Printf("job %d (%s): ctrl=%d peer=%d messages\n",
				st.ID, mode, st.Messages.Ctrl, st.Messages.Peer)
		}
	}

	h, err := c.Healthz(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz: %d switches, queue depth %d, %d running\n", h.Switches, h.QueueDepth, h.Running)
}
