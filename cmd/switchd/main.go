// Command switchd runs a fleet of simulated OpenFlow switches for a
// topology and connects them to a controller. The fleet shares the
// controller's canonical port map (both derive it from the same
// topology spec), mirroring how the demo's Mininet script and Ryu app
// share the topology.
//
// The switches serve this repository's controller, not an arbitrary
// one. They speak the seven OpenFlow 1.0 message types it uses — HELLO,
// ERROR, ECHO, VENDOR (plan pushes, reports and state queries),
// FEATURES, FLOW_MOD and BARRIER — and answer any other type with
// BAD_REQUEST/BAD_TYPE, keeping the connection. A FlowMod asking for a
// timeout or for FLOW_REMOVED is refused: rules never expire.
//
// Usage:
//
//	switchd -topo fig1 -controller 127.0.0.1:6633 \
//	        -jitter 2ms -install 1ms -seed 42
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tsu/internal/netem"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "switchd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topoSpec  = flag.String("topo", "fig1", "topology spec (must match the controller's)")
		ctrlAddr  = flag.String("controller", "127.0.0.1:6633", "controller OpenFlow address")
		jitterMax = flag.Duration("jitter", 2*time.Millisecond, "max per-message control-channel delay (0 disables)")
		install   = flag.Duration("install", time.Millisecond, "mean rule-install latency (0 disables)")
		seed      = flag.Int64("seed", 1, "randomness seed (per-switch sources derive from it)")
		verbose   = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	g, err := topo.FromSpec(*topoSpec)
	if err != nil {
		return err
	}
	var jitter, installDist netem.Latency
	if *jitterMax > 0 {
		jitter = netem.Uniform{Min: 0, Max: *jitterMax}
	}
	if *install > 0 {
		installDist = netem.Uniform{Min: *install / 2, Max: *install * 3 / 2}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fabric := switchsim.NewFabric(g)
	switches := make([]*switchsim.Switch, 0, g.NumNodes())
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			CtrlLatency:    jitter,
			InstallLatency: installDist,
			Source:         netem.NewSource(*seed*1000003 + int64(n)),
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		if err := sw.Connect(ctx, *ctrlAddr); err != nil {
			return fmt.Errorf("switch %d: %w", n, err)
		}
		switches = append(switches, sw)
	}
	fmt.Printf("switchd: %d switches dialed %s (topology %s)\n", len(switches), *ctrlAddr, *topoSpec)

	<-ctx.Done()
	for _, sw := range switches {
		sw.Stop()
	}
	fmt.Println("switchd: stopped")
	return nil
}
