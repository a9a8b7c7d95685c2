// Command schedctl computes and verifies update schedules offline — no
// controller or switches involved. It is the operator's dry-run tool:
// given the old route, the new route and an optional waypoint, it
// prints each algorithm's rounds, the verified guarantees, and any
// counterexample for the one-shot baseline.
//
// With -submit the plan turns into action: the chosen update is sent
// to a live controller through the typed /v1 client SDK and its
// round-by-round progress streams back.
//
// Usage:
//
//	schedctl -old 1,2,3,4,5,6,12 -new 1,7,8,3,9,10,11,12 -wp 3
//	schedctl -old 1,2,3,4,5,6,12 -new 1,7,8,3,9,10,11,12 -wp 3 -algo synth -gap
//	schedctl -family reversal:32 -algorithm peacock
//	schedctl -old 1,2,3 -new 1,3 -algorithm optimal -props relaxed-lf
//	schedctl -old 1,2,3 -new 1,4,3 -algorithm peacock -submit \
//	         -server http://127.0.0.1:8080 -nwdst 10.0.0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/core"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedctl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		oldPath   = flag.String("old", "", "old route, comma-separated datapath ids")
		newPath   = flag.String("new", "", "new route, comma-separated datapath ids")
		waypoint  = flag.Uint64("wp", 0, "waypoint datapath id (0 = none)")
		family    = flag.String("family", "", "generate the instance from a family spec (reversal:N, staircase:N, nested:N) instead of -old/-new")
		algorithm = flag.String("algorithm", "", "one of "+strings.Join(core.Names(), ", ")+" (default: all applicable)")
		gap       = flag.Bool("gap", false, "print the optimality-gap table: every heuristic's plan vs the synthesized optimum, then exit")
		propsFlag = flag.String("props", "", "verify against these properties instead of the schedule's own guarantees (comma-separated: no-blackhole, waypoint, relaxed-lf, strong-lf)")
		planFlag  = flag.String("plan", "", "execution plan shape, for both the printed shape and -submit: layered (default) or sparse")
		modeFlag  = flag.String("mode", "", "dispatch path, for both the printed message counts and -submit: controller (default) or decentralized")
		submit    = flag.Bool("submit", false, "submit the update to a live controller after the dry run (uses -algorithm, or the instance default when unset)")
		server    = flag.String("server", "http://127.0.0.1:8080", "controller REST base URL for -submit")
		nwDst     = flag.String("nwdst", "10.0.0.2", "flow destination IPv4 address for -submit")
		interval  = flag.Duration("interval", 0, "pause between rounds for -submit")
		cleanup   = flag.Bool("cleanup", false, "append a garbage-collection round for -submit")
		timeout   = flag.Duration("timeout", 60*time.Second, "completion timeout for -submit")
	)
	flag.StringVar(algorithm, "algo", "", "alias for -algorithm")
	flag.Parse()

	in, err := buildInstance(*family, *oldPath, *newPath, topo.NodeID(*waypoint))
	if err != nil {
		return err
	}
	fmt.Printf("instance: %s\n", in)
	fmt.Printf("pending switches (%d): %v\n\n", in.NumPending(), in.Pending())

	if *gap {
		rep, err := synth.Compare(in, synth.Options{})
		if err != nil {
			return err
		}
		fmt.Print(rep.Table())
		return nil
	}

	props, err := parseProps(*propsFlag)
	if err != nil {
		return err
	}

	var algos []string
	if *algorithm != "" {
		algos = []string{*algorithm}
	} else {
		// Every registered scheduler that applies to this instance.
		for _, name := range core.Names() {
			if s, err := core.Lookup(name); err == nil && s.Applicable(in) {
				algos = append(algos, name)
			}
		}
	}

	for _, algo := range algos {
		dryRun(os.Stdout, in, algo, props, *planFlag == "sparse", *modeFlag == "decentralized")
	}

	if *submit {
		return submitUpdate(in, *algorithm, *propsFlag, *planFlag, *modeFlag, *server, *nwDst, *interval, *cleanup, *timeout)
	}
	return nil
}

// submitUpdate sends the instance to a live controller through the
// typed client SDK and streams round progress until the job finishes.
// The -props selection travels with the request, so the server
// schedules against the same properties the local dry run verified.
func submitUpdate(in *core.Instance, algorithm, propsFlag, planFlag, modeFlag, server, nwDst string, interval time.Duration, cleanup bool, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var propNames []string
	if propsFlag != "" {
		for _, p := range strings.Split(propsFlag, ",") {
			propNames = append(propNames, strings.TrimSpace(p))
		}
	}
	c := client.New(server, client.WithTimeout(timeout))
	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{{
			OldPath:    api.FromPath(in.Old),
			NewPath:    api.FromPath(in.New),
			Waypoint:   uint64(in.Waypoint),
			Algorithm:  algorithm,
			NWDst:      nwDst,
			Properties: propNames,
			Plan:       planFlag,
			Mode:       modeFlag,
		}},
		Interval: int(interval.Milliseconds()),
		Cleanup:  cleanup,
	})
	if err != nil {
		return fmt.Errorf("submitting: %w", err)
	}
	acc := resp.Updates[0]
	fmt.Printf("\nsubmitted as job %d: algorithm=%s guarantees=%s\n", acc.ID, acc.Algorithm, acc.Guarantees)
	if acc.Plan != nil {
		fmt.Printf("plan: depth=%d width=%d critical=%d sparse=%t\n",
			acc.Plan.Depth, acc.Plan.Width, acc.Plan.CriticalPath, acc.Plan.Sparse)
	}
	st, err := c.WaitRounds(ctx, acc.ID, func(r api.RoundStatus) {
		fmt.Printf("  round %d: %dµs (switches %v)\n", r.Round, r.Micros, r.Switches)
	})
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job %d failed: %s", acc.ID, st.Error)
	}
	fmt.Printf("job %d done in %dµs\n", acc.ID, st.TotalMicros)
	if st.Messages != nil {
		fmt.Printf("messages: ctrl=%d peer=%d\n", st.Messages.Ctrl, st.Messages.Peer)
		for _, mc := range st.MessagesPerSwitch {
			fmt.Printf("  sw=%d: ctrl=%d peer=%d\n", mc.Switch, mc.Ctrl, mc.Peer)
		}
	}
	return nil
}

// dryRun prints one algorithm's rounds, the shape of the plan -submit
// with the same -plan and -mode would execute, and that plan's
// verification. The scheduler runs once: the rounds are its plan's
// layered view, the executed plan that view or, when sparse is set,
// core.SparsePlan of the scheduler's plan (a synthesized DAG as is).
func dryRun(w io.Writer, in *core.Instance, algo string, props core.Property, sparse, decentralized bool) {
	sch, err := core.Lookup(algo)
	var p *core.Plan
	if err == nil {
		p, err = sch.Plan(in, props)
	}
	if err != nil {
		fmt.Fprintf(w, "%-11s %v\n", algo+":", err)
		return
	}
	plan := p.LayeredView()
	fmt.Fprintf(w, "%-11s %s\n", algo+":", roundsString(plan))
	if sparse {
		plan = core.SparsePlan(in, p)
	}
	fmt.Fprintf(w, "            plan: depth=%d width=%d critical=%d nodes=%d edges=%d sparse=%t\n",
		plan.Depth(), plan.Width(), plan.CriticalPath(), plan.NumNodes(), plan.NumEdges(), plan.Sparse)
	// Per-switch message counts for what -submit with the current
	// -mode would exchange: decentralized collapses the control
	// channel to push + report per switch, with the dependency acks
	// travelling switch-to-switch.
	if decentralized {
		for _, part := range plan.Partition() {
			peer := 0
			for _, pn := range part.Nodes {
				for _, e := range pn.OutEdges {
					if e.Switch != part.Switch {
						peer++
					}
				}
			}
			fmt.Fprintf(w, "            messages sw=%d: ctrl=2 peer=%d\n", part.Switch, peer)
		}
	}
	checkProps := props
	if checkProps == 0 {
		checkProps = plan.Guarantees
	}
	if checkProps == 0 {
		// One-shot guarantees nothing; verify it against what the
		// consistent schedulers provide, so the dry run shows what
		// would break.
		checkProps = in.NaturalProps()
	}
	report := verify.Plan(in, plan, checkProps, verify.Options{})
	fmt.Fprintf(w, "            %s\n", report)
	if cex := report.FirstViolation(); cex != nil {
		fmt.Fprintf(w, "            counterexample walk: %v\n", cex.Walk)
	}
}

// roundsString renders a layered plan's rounds, e.g.
// "wayup[3 rounds: {6 7} {3} {1}]".
func roundsString(p *core.Plan) string {
	layers := p.Layers()
	s := fmt.Sprintf("%s[%d rounds:", p.Algorithm, len(layers))
	for _, r := range layers {
		s += " {" + strings.Trim(fmt.Sprint(r), "[]") + "}"
	}
	return s + "]"
}

func buildInstance(family, oldStr, newStr string, wp topo.NodeID) (*core.Instance, error) {
	if family != "" {
		inst, ok, err := topo.UpdateFromSpec(family)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%q is not a two-path family spec", family)
		}
		return core.NewInstance(inst.Old, inst.New, wp)
	}
	old, err := topo.ParsePath(oldStr)
	if err != nil {
		return nil, fmt.Errorf("-old: %w", err)
	}
	next, err := topo.ParsePath(newStr)
	if err != nil {
		return nil, fmt.Errorf("-new: %w", err)
	}
	return core.NewInstance(old, next, wp)
}

func parseProps(s string) (core.Property, error) {
	if s == "" {
		return 0, nil
	}
	return core.ParseProperties(strings.Split(s, ","))
}
