package switchsim

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/ofconn"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// fakeController accepts switch connections, runs the controller-side
// handshake, counts the handshakes and reads on until the switch hangs
// up — just enough controller for fleet tests that need a live control
// channel.
type fakeController struct {
	addr       string
	handshakes atomic.Int64
}

func newFakeController(t *testing.T, ctx context.Context) *fakeController {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	fc := &fakeController{addr: ln.Addr().String()}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := ofconn.New(nc)
				defer conn.Close()
				if _, err := ofconn.HandshakeController(conn); err != nil {
					return
				}
				fc.handshakes.Add(1)
				for {
					if _, err := conn.ReadMessage(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return fc
}

// awaitHandshakes waits until the controller has completed n
// handshakes in all.
func (fc *fakeController) awaitHandshakes(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fc.handshakes.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d handshakes done", fc.handshakes.Load(), n)
		}
	}
}

// settledGoroutines gives just-spawned or just-released goroutines
// time to park or exit, then reads the count that holds for a few
// milliseconds — the least of eight samples — so that a goroutine on
// its way out is not counted as one a switch holds.
func settledGoroutines() int {
	time.Sleep(20 * time.Millisecond)
	least := runtime.NumGoroutine()
	for i := 1; i < 8; i++ {
		time.Sleep(500 * time.Microsecond)
		least = min(least, runtime.NumGoroutine())
	}
	return least
}

// TestIdleFleetGoroutineBudget pins what a connected switch at rest
// costs: its blocking reader. Close-on-cancel is a context callback,
// so 64 idle switches stay within 64 + 8 goroutines of their own, and
// Stop returns the process to its baseline.
func TestIdleFleetGoroutineBudget(t *testing.T) {
	g := topo.Grid(8, 8)
	n := g.NumNodes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := newFakeController(t, ctx)
	base := settledGoroutines()

	fabric := NewFabric(g)
	sws := make([]*Switch, 0, n)
	for _, node := range g.Nodes() {
		sw, err := NewSwitch(fabric, Config{Node: node})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, fc.addr); err != nil {
			t.Fatal(err)
		}
		sws = append(sws, sw)
	}
	fc.awaitHandshakes(t, int64(n))
	// Each connection also holds one reader of the fake controller's.
	if own := settledGoroutines() - base - n; own > n+8 {
		t.Fatalf("%d idle switches hold %d goroutines of their own, want <= %d", n, own, n+8)
	}

	for _, sw := range sws {
		sw.Stop()
	}
	if after := settledGoroutines(); after > base+8 {
		t.Fatalf("%d goroutines after Stop, baseline was %d", after, base)
	}
}

// TestFleetAtRestLeavesNothingPending: a switch arms a clock event only
// for work in flight, so a connected fleet at rest on a virtual clock —
// one switch reconnected while its first connection is still up — has
// no event pending, and running the simulation to quiescence returns.
func TestFleetAtRestLeavesNothingPending(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := newFakeController(t, ctx)
	sim := simclock.NewSim(time.Time{})
	g := topo.Fig1()
	fabric := NewFabric(g)
	for _, node := range g.Nodes()[:4] {
		sw, err := NewSwitch(fabric, Config{Node: node, Clock: sim})
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Stop()
		if err := sw.Connect(ctx, fc.addr); err != nil {
			t.Fatal(err)
		}
	}
	fc.awaitHandshakes(t, 4)
	if err := fabric.Switch(g.Nodes()[0]).Connect(ctx, fc.addr); err != nil {
		t.Fatal(err)
	}
	fc.awaitHandshakes(t, 5)
	time.Sleep(20 * time.Millisecond) // what a switch arms after its handshake is armed by now
	if n := sim.Pending(); n != 0 {
		t.Fatalf("%d events pending on a fleet at rest, want 0", n)
	}
	ran := make(chan int, 1)
	go func() { ran <- sim.Run() }()
	select {
	case n := <-ran:
		if n != 0 {
			t.Fatalf("Run fired %d events on a fleet at rest", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned on a fleet at rest")
	}
}
