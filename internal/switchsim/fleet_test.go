package switchsim

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// fakeController accepts switch connections, runs the controller-side
// handshake, and records every FLOW_REMOVED per datapath and per
// connection (in accept order) — just enough controller for fleet tests
// that need a live control channel.
type fakeController struct {
	addr string

	mu        sync.Mutex
	removed   map[uint64]int
	removedOn []int
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
	fc := &fakeController{addr: ln.Addr().String(), removed: make(map[uint64]int)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fc.mu.Lock()
			idx := len(fc.removedOn)
			fc.removedOn = append(fc.removedOn, 0)
			fc.mu.Unlock()
			go func() {
				conn := ofconn.New(nc)
				defer conn.Close()
				fr, err := ofconn.HandshakeController(conn)
				if err != nil {
					return
				}
				for {
					m, err := conn.ReadMessage()
					if err != nil {
						return
					}
					if _, ok := m.(*openflow.FlowRemoved); ok {
						fc.mu.Lock()
						fc.removed[fr.DatapathID]++
						fc.removedOn[idx]++
						fc.mu.Unlock()
					}
				}
			}()
		}
	}()
	return fc
}

func (fc *fakeController) removedCount(dpid uint64) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.removed[dpid]
}

func (fc *fakeController) removedPerConn() []int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return append([]int(nil), fc.removedOn...)
}

// settledGoroutines gives just-spawned or just-released goroutines
// time to park or exit, then reads the count that holds for a few
// milliseconds — the least of eight samples — so that a sweep firing on
// its momentary goroutine is not counted as one a switch holds.
func settledGoroutines() int {
	time.Sleep(20 * time.Millisecond)
	least := runtime.NumGoroutine()
	for i := 1; i < 8; i++ {
		time.Sleep(500 * time.Microsecond)
		least = min(least, runtime.NumGoroutine())
	}
	return least
}

// expiringRule is a rule that hard-times-out after one TimeoutUnit and
// asks for FLOW_REMOVED.
func expiringRule() *openflow.FlowMod {
	f := fm(openflow.FlowAdd, "10.0.0.2", 100, 3)
	f.HardTimeout = 1
	f.Flags = openflow.FlagSendFlowRem
	return f
}

// TestIdleFleetGoroutineBudget pins what a connected switch at rest
// costs under the one layout there is: its blocking reader. Expiry
// sweeps and close-on-cancel are timers and context callbacks, so 64
// idle switches stay within 64 + 8 goroutines of their own, a rule
// still expires and is reported, and Stop returns the process to its
// baseline with no sweep left running.
func TestIdleFleetGoroutineBudget(t *testing.T) {
	g := topo.Grid(8, 8)
	n := g.NumNodes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := newFakeController(t, ctx)
	base := settledGoroutines()

	const unit = 50 * time.Millisecond
	fabric := NewFabric(g)
	sws := make([]*Switch, 0, n)
	for _, node := range g.Nodes() {
		sw, err := NewSwitch(fabric, Config{Node: node, TimeoutUnit: unit})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, fc.addr); err != nil {
			t.Fatal(err)
		}
		sws = append(sws, sw)
	}
	// Each connection also holds one reader of the fake controller's.
	if own := settledGoroutines() - base - n; own > n+8 {
		t.Fatalf("%d idle switches hold %d goroutines of their own, want <= %d", n, own, n+8)
	}

	sw := sws[0]
	if oferr := sw.Table().Apply(expiringRule()); oferr != nil {
		t.Fatalf("apply: %v", oferr)
	}
	for deadline := time.Now().Add(5 * time.Second); fc.removedCount(sw.DatapathID()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timer-driven sweep never delivered FLOW_REMOVED")
		}
	}

	for _, sw := range sws {
		sw.Stop()
	}
	if after := settledGoroutines(); after > base+8 {
		t.Fatalf("%d goroutines after Stop, baseline was %d", after, base)
	}
	// A stopped switch is swept by nothing: an overdue rule stays put.
	if oferr := sw.Table().Apply(expiringRule()); oferr != nil {
		t.Fatalf("apply: %v", oferr)
	}
	time.Sleep(4 * unit)
	if sw.Table().Len() != 1 {
		t.Fatal("a sweep ran on a stopped switch")
	}
}

// TestReconnectRetiresOldSweep: a switch that connects again while its
// previous connection is still up must not sweep twice. On a virtual
// clock every armed sweep is one pending event, so the chains can be
// counted: the sweep armed on the superseded connection dies when it
// fires, exactly one chain runs on — on the new connection — and Stop
// ends that one too.
func TestReconnectRetiresOldSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := newFakeController(t, ctx)
	sim := simclock.NewSim(time.Time{})
	g := topo.Fig1()
	sw, err := NewSwitch(NewFabric(g), Config{Node: g.Nodes()[0], Clock: sim, TimeoutUnit: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()

	// pendingSettles waits out the goroutine of a just-fired sweep, then
	// demands exactly `want` armed sweeps.
	pendingSettles := func(want int, when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for sim.Pending() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond) // a second chain would have re-armed by now
		if got := sim.Pending(); got != want {
			t.Fatalf("%d sweeps armed %s, want %d", got, when, want)
		}
	}

	for i := 0; i < 2; i++ {
		if err := sw.Connect(ctx, fc.addr); err != nil {
			t.Fatal(err)
		}
	}
	pendingSettles(2, "after connecting twice")
	if oferr := sw.Table().Apply(expiringRule()); oferr != nil {
		t.Fatalf("apply: %v", oferr)
	}
	for i := 0; i < 8; i++ { // 8 periods of 250ms: past the 1s hard timeout
		sim.Step()
		pendingSettles(1, "once the superseded connection's sweep fired")
	}
	for deadline := time.Now().Add(5 * time.Second); fc.removedCount(sw.DatapathID()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the surviving sweep never delivered FLOW_REMOVED")
		}
	}
	if got := fmt.Sprint(fc.removedPerConn()); got != "[0 1]" {
		t.Fatalf("FLOW_REMOVED per connection = %s, want [0 1] (the new connection only)", got)
	}

	sw.Stop()
	sim.Step()
	pendingSettles(0, "after Stop")
}
