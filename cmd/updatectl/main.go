// Command updatectl submits policy updates to the controller's /v1
// REST API through the typed client SDK — the client side of the
// paper's update message, grown to batches — and streams the job's
// round/barrier progress until completion.
//
// Usage:
//
//	updatectl -server http://127.0.0.1:8080 \
//	          -old 1,2,3,4,5,6,12 -new 1,7,8,3,9,10,11,12 -wp 3 \
//	          -algorithm wayup -nwdst 10.0.0.2 -interval 10ms
//
//	# several flows in one batch: entries separated by ';' as
//	# old|new[|wp[|nwdst[|algorithm]]]
//	updatectl -batch '1,2,3|1,4,3||10.0.0.2;5,6,7|5,8,7||10.0.0.9'
//
// The old policy must already be installed (see updatectl -install).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/core"
	_ "tsu/internal/synth" // registers the synth scheduler so -algorithm lists it
	"tsu/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "updatectl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		server    = flag.String("server", "http://127.0.0.1:8080", "controller REST base URL")
		oldPath   = flag.String("old", "", "old route, comma-separated datapath ids")
		newPath   = flag.String("new", "", "new route, comma-separated datapath ids")
		waypoint  = flag.Uint64("wp", 0, "waypoint datapath id (0 = none)")
		algorithm = flag.String("algorithm", "", strings.Join(core.Names(), " | ")+" | two-phase (default: wayup with waypoint, else peacock)")
		nwDst     = flag.String("nwdst", "10.0.0.2", "flow destination IPv4 address")
		batch     = flag.String("batch", "", "batch entries 'old|new[|wp[|nwdst[|algorithm]]]' separated by ';' (overrides -old/-new)")
		planShape = flag.String("plan", "", "execution plan shape: layered (default) or sparse (ack-driven dependency DAG where the scheduler supports it)")
		mode      = flag.String("mode", "", "dispatch path: controller (default) or decentralized (switches release each other peer-to-peer from one pushed plan)")
		installs  = flag.Bool("installs", false, "stream per-switch installs (with releasing edges) instead of per-round summaries")
		interval  = flag.Duration("interval", 0, "pause between rounds")
		install   = flag.Bool("install", false, "install each old path as the active policy first (POST /v1/policies)")
		host      = flag.String("host", "", "destination host name for -install (e.g. h2)")
		cleanup   = flag.Bool("cleanup", false, "append a garbage-collection round deleting stale rules")
		dryRun    = flag.Bool("dry-run", false, "plan only: print schedules, submit nothing")
		healthz   = flag.Bool("healthz", false, "print the controller's health probe (uptime, journal, recovered jobs) and exit")
		timeout   = flag.Duration("timeout", 60*time.Second, "completion timeout")
	)
	flag.Parse()

	if *healthz {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		return printHealthz(ctx, client.New(*server, client.WithTimeout(*timeout)))
	}

	updates, err := parseUpdates(*batch, *oldPath, *newPath, *waypoint, *nwDst, *algorithm)
	if err != nil {
		return err
	}
	for i := range updates {
		updates[i].Plan = *planShape
		updates[i].Mode = *mode
	}

	// Algorithm names are validated by the server (structured 400 with
	// CodeUnknownAlgorithm): its registry, not this binary's compiled-in
	// copy, is the source of truth — a controller with extra schedulers
	// registered stays drivable by a stock updatectl.

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*server, client.WithTimeout(*timeout))

	if *install {
		// -host names one delivery host; with several flows it would
		// install the wrong egress port for all but one of them.
		if *host != "" && len(updates) > 1 {
			return fmt.Errorf("-host applies to a single flow; omit it when installing a multi-flow -batch")
		}
		// Fail fast before mutating any switch: a server-side dry run
		// validates every entry (paths, waypoints, algorithm names)
		// against the controller's own registry.
		if _, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: updates, DryRun: true}); err != nil {
			return fmt.Errorf("validating batch before -install: %w", err)
		}
		for _, u := range updates {
			req := api.PolicyRequest{Path: u.OldPath, NWDst: u.NWDst, Host: *host}
			if err := c.InstallPolicy(ctx, req); err != nil {
				return fmt.Errorf("installing old policy: %w", err)
			}
			fmt.Printf("installed old policy %v for %s\n", u.OldPath, u.NWDst)
		}
	}

	resp, err := c.SubmitBatch(ctx, api.BatchUpdateRequest{
		Updates:  updates,
		Interval: int(interval.Milliseconds()),
		Cleanup:  *cleanup,
		DryRun:   *dryRun,
	})
	if err != nil {
		return err
	}
	for i, acc := range resp.Updates {
		if *dryRun {
			fmt.Printf("flow %s planned: algorithm=%s guarantees=%s rounds=%d%s\n",
				updates[i].NWDst, acc.Algorithm, acc.Guarantees, len(acc.Rounds), planSummary(acc.Plan))
		} else {
			fmt.Printf("job %d accepted (%s): algorithm=%s guarantees=%s rounds=%d%s\n",
				acc.ID, updates[i].NWDst, acc.Algorithm, acc.Guarantees, len(acc.Rounds), planSummary(acc.Plan))
		}
		for r, round := range acc.Rounds {
			fmt.Printf("  round %d: %v\n", r, round)
		}
		if acc.Compromise {
			fmt.Println("  note: loop freedom compromised (waypoint enforcement kept)")
		}
	}
	if *dryRun {
		return nil
	}

	// Stream every job's progress; jobs of a batch execute concurrently
	// when their flows are disjoint, so watch them all before judging.
	failed := 0
	for _, acc := range resp.Updates {
		if err := watchJob(ctx, c, acc.ID, *installs); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: job %d: %v\n", acc.ID, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(resp.Updates))
	}
	return nil
}

// planSummary renders a plan shape for the accept line, e.g.
// " plan[depth=2 width=5 critical=1 sparse]".
func planSummary(p *api.PlanShape) string {
	if p == nil {
		return ""
	}
	s := fmt.Sprintf(" plan[depth=%d width=%d critical=%d", p.Depth, p.Width, p.CriticalPath)
	if p.Sparse {
		s += " sparse"
	}
	return s + "]"
}

// watchJob streams one job's progress — per-round summaries, or
// per-switch installs with their releasing edges — and returns an
// error when the job fails.
func watchJob(ctx context.Context, c *client.Client, id int, installs bool) error {
	onRound := func(r api.RoundStatus) {
		fmt.Printf("job %d round %d: %dµs (%d switches)\n", id, r.Round, r.Micros, len(r.Switches))
	}
	var onInstall func(api.InstallStatus)
	if installs {
		onRound = nil
		onInstall = func(is api.InstallStatus) {
			release := "dispatched immediately"
			if is.ReleasedBy != 0 {
				release = fmt.Sprintf("released by %d", is.ReleasedBy)
			}
			fmt.Printf("job %d install sw=%d layer=%d: %dµs (%s)\n", id, is.Switch, is.Layer, is.Micros, release)
		}
	}
	st, err := c.WaitProgress(ctx, id, onRound, onInstall)
	if err != nil {
		return err
	}
	if st.State != "done" {
		printFailure(id, st.Failure)
		return fmt.Errorf("failed: %s", st.Error)
	}
	fmt.Printf("job %d done in %dµs%s\n", id, st.TotalMicros, messageSummary(st))
	if installs {
		for _, mc := range st.MessagesPerSwitch {
			fmt.Printf("job %d messages sw=%d: ctrl=%d peer=%d\n", id, mc.Switch, mc.Ctrl, mc.Peer)
		}
	}
	return nil
}

// printHealthz fetches and renders the ops probe: switch count,
// uptime, journal status, and what the last restart recovered.
func printHealthz(ctx context.Context, c *client.Client) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("status: %s\n", h.Status)
	fmt.Printf("switches: %d\n", h.Switches)
	fmt.Printf("uptime: %s\n", h.Uptime().Round(time.Millisecond))
	fmt.Printf("finished jobs: %d retained, %d evicted\n", h.JobsRetained, h.JobsEvicted)
	switch {
	case h.Journal == nil || !h.Journal.Enabled:
		fmt.Println("journal: disabled (in-memory)")
	default:
		fmt.Printf("journal: %s (%d bytes)\n", h.Journal.Path, h.Journal.SizeBytes)
	}
	if h.RecoveredJobs > 0 || h.AdoptedJobs > 0 {
		fmt.Printf("recovered jobs: %d (%d adopted mid-flight)\n", h.RecoveredJobs, h.AdoptedJobs)
	}
	return nil
}

// printFailure renders a failed job's structured abort outcome: how
// far recovery got, what was installed and rolled back, and — for
// stuck jobs — which switches keep their new rules and what blocks
// each one's uninstall.
func printFailure(id int, f *api.FailureReport) {
	if f == nil {
		return
	}
	verified := ""
	if f.RollbackVerified {
		verified = " (rollback verified safe)"
	}
	fmt.Fprintf(os.Stderr, "job %d %s%s: installed=%v rolled_back=%v\n",
		id, f.Phase, verified, f.Installed, f.RolledBack)
	if f.TriggeringFault != "" {
		fmt.Fprintf(os.Stderr, "job %d fault: %s\n", id, f.TriggeringFault)
	}
	for _, s := range f.Stuck {
		if len(s.WaitingOn) > 0 {
			fmt.Fprintf(os.Stderr, "job %d stuck sw=%d: uninstall blocked by %v\n", id, s.Switch, s.WaitingOn)
		} else {
			fmt.Fprintf(os.Stderr, "job %d stuck sw=%d\n", id, s.Switch)
		}
	}
}

// messageSummary renders the job's message-count breakdown for the
// done line, e.g. " messages[ctrl=24 peer=7]".
func messageSummary(st *api.JobStatus) string {
	if st.Messages == nil {
		return ""
	}
	s := fmt.Sprintf(" messages[ctrl=%d", st.Messages.Ctrl)
	if st.Messages.Peer > 0 || st.Mode == "decentralized" {
		s += fmt.Sprintf(" peer=%d", st.Messages.Peer)
	}
	return s + "]"
}

// parseUpdates builds the batch: either from -batch entries or from
// the single-flow flags.
func parseUpdates(batch, oldStr, newStr string, wp uint64, nwDst, algorithm string) ([]api.FlowUpdate, error) {
	if batch == "" {
		old, err := parseIDs(oldStr)
		if err != nil {
			return nil, fmt.Errorf("-old: %w", err)
		}
		next, err := parseIDs(newStr)
		if err != nil {
			return nil, fmt.Errorf("-new: %w", err)
		}
		return []api.FlowUpdate{{OldPath: old, NewPath: next, Waypoint: wp, NWDst: nwDst, Algorithm: algorithm}}, nil
	}
	var updates []api.FlowUpdate
	for i, entry := range strings.Split(batch, ";") {
		fields := strings.Split(entry, "|")
		if len(fields) < 2 {
			return nil, fmt.Errorf("-batch entry %d: want old|new[|wp[|nwdst[|algorithm]]], got %q", i, entry)
		}
		// Entries inherit every single-flow flag (-nwdst, -algorithm,
		// -wp); fields 3-5 override per entry.
		u := api.FlowUpdate{NWDst: nwDst, Algorithm: algorithm, Waypoint: wp}
		var err error
		if u.OldPath, err = parseIDs(fields[0]); err != nil {
			return nil, fmt.Errorf("-batch entry %d old: %w", i, err)
		}
		if u.NewPath, err = parseIDs(fields[1]); err != nil {
			return nil, fmt.Errorf("-batch entry %d new: %w", i, err)
		}
		if len(fields) > 2 && fields[2] != "" {
			if u.Waypoint, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
				return nil, fmt.Errorf("-batch entry %d wp: %w", i, err)
			}
		}
		if len(fields) > 3 && fields[3] != "" {
			u.NWDst = fields[3]
		}
		if len(fields) > 4 && fields[4] != "" {
			u.Algorithm = fields[4]
		}
		updates = append(updates, u)
	}
	return updates, nil
}

func parseIDs(s string) ([]uint64, error) {
	p, err := topo.ParsePath(s)
	if err != nil {
		return nil, err
	}
	return api.FromPath(p), nil
}
