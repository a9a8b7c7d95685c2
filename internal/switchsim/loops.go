package switchsim

import (
	"context"
	"runtime"
	"sync"
	"time"

	"tsu/internal/ofconn"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// LoopGroup multiplexes the timed background duties of many simulated
// switches — flow-expiry sweeps and delayed peer-ack deliveries — onto
// a fixed pool of shared event loops under one clock. Without a group,
// every switch spends two long-lived goroutines beyond its blocking
// reader (an expiry ticker and a context watcher) plus one transient
// goroutine per peer ack in flight; a 100k-switch fleet pays for
// 300k+ goroutines before a single update runs. With a group, the
// fleet shares one timing loop, a fixed worker pool, and one
// connection watcher, capping the per-switch cost at the single
// blocking reader that net.Conn imposes.
//
// A group is bound to a context and a clock at construction; switches
// opt in via Config.Loops and should be driven by the same context
// and clock. Under a simclock.Sim the group's timers elapse in
// virtual time like everything else on the fabric.
type LoopGroup struct {
	clock simclock.Clock
	ctx   context.Context

	work chan groupEvent // due events awaiting a worker
	kick chan struct{}   // wakes the timing loop on a new head event

	mu      sync.Mutex
	members map[*Switch]*ofconn.Conn
	heap    []groupEvent // min-heap on (at, seq)
	seq     uint64
}

// groupEvent is one timed duty: a flow-expiry sweep of a member switch
// (sweep == true) or a delayed peer-ack delivery.
type groupEvent struct {
	at  time.Time
	seq uint64

	sweep bool
	sw    *Switch      // sweep: the swept switch; ack: the sender
	conn  *ofconn.Conn // sweep only: the connection carrying FLOW_REMOVED
	to    topo.NodeID  // ack only
	ack   PeerAck      // ack only
}

// NewLoopGroup starts a shared event-loop pool on the given clock.
// workers <= 0 selects GOMAXPROCS. The group runs until ctx is
// cancelled; cancellation closes every registered member's control
// connection so their blocked readers return.
func NewLoopGroup(ctx context.Context, clock simclock.Clock, workers int) *LoopGroup {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &LoopGroup{
		clock:   simclock.Or(clock),
		ctx:     ctx,
		work:    make(chan groupEvent, 4*workers),
		kick:    make(chan struct{}, 1),
		members: make(map[*Switch]*ofconn.Conn),
	}
	go g.run()
	for i := 0; i < workers; i++ {
		go g.worker()
	}
	return g
}

// Members returns how many switches are currently registered.
func (g *LoopGroup) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// register adopts a freshly connected switch: its expiry sweeps run on
// the group from now on (called by Switch.Connect).
func (g *LoopGroup) register(s *Switch, conn *ofconn.Conn) {
	first := g.clock.Now().Add(s.expiryPeriod())
	g.mu.Lock()
	g.members[s] = conn
	g.pushLocked(groupEvent{at: first, sweep: true, sw: s, conn: conn})
	g.mu.Unlock()
	g.wake()
}

// unregister drops a disconnected switch; its queued sweep dies at
// fire time when the membership check fails.
func (g *LoopGroup) unregister(s *Switch) {
	g.mu.Lock()
	delete(g.members, s)
	g.mu.Unlock()
}

// schedule queues a delayed peer-ack delivery.
func (g *LoopGroup) schedule(at time.Time, from *Switch, to topo.NodeID, ack PeerAck) {
	g.mu.Lock()
	g.pushLocked(groupEvent{at: at, sw: from, to: to, ack: ack})
	g.mu.Unlock()
	g.wake()
}

func (g *LoopGroup) wake() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// run is the timing loop: it pops due events to the workers and sleeps
// on the clock until the next deadline. The timer is re-armed only
// when the head moves earlier; a spurious fire is a harmless no-op.
func (g *LoopGroup) run() {
	var timerC <-chan time.Time
	var timerAt time.Time
	for {
		now := g.clock.Now()
		var next time.Time
		for {
			g.mu.Lock()
			if len(g.heap) == 0 || g.heap[0].at.After(now) {
				if len(g.heap) > 0 {
					next = g.heap[0].at
				} else {
					next = time.Time{}
				}
				g.mu.Unlock()
				break
			}
			ev := g.popLocked()
			g.mu.Unlock()
			select {
			case g.work <- ev:
			case <-g.ctx.Done():
				g.shutdown()
				return
			}
		}
		if !next.IsZero() && (timerC == nil || timerAt.After(next)) {
			timerC = g.clock.After(next.Sub(now))
			timerAt = next
		}
		select {
		case <-g.ctx.Done():
			g.shutdown()
			return
		case <-g.kick:
		case <-timerC:
			timerC = nil
		}
	}
}

// worker executes due events: table sweeps and ack deliveries.
func (g *LoopGroup) worker() {
	for {
		select {
		case <-g.ctx.Done():
			return
		case ev := <-g.work:
			if ev.sweep {
				g.sweepMember(ev)
			} else if tgt := ev.sw.fabric.Switch(ev.to); tgt != nil {
				tgt.agent.deliver(ev.ack)
			}
		}
	}
}

// sweepMember runs one expiry sweep and re-queues the next, unless the
// switch has disconnected (or reconnected on a different conn) since
// the sweep was scheduled.
func (g *LoopGroup) sweepMember(ev groupEvent) {
	g.mu.Lock()
	conn, live := g.members[ev.sw]
	g.mu.Unlock()
	if !live || conn != ev.conn {
		return
	}
	now := g.clock.Now()
	if err := ev.sw.sweepExpiry(ev.conn, now); err != nil {
		return // connection dead; the control loop will unregister
	}
	g.mu.Lock()
	g.pushLocked(groupEvent{at: now.Add(ev.sw.expiryPeriod()), sweep: true, sw: ev.sw, conn: ev.conn})
	g.mu.Unlock()
	g.wake()
}

// shutdown closes every member's control connection so their blocked
// readers return; queued events are abandoned.
func (g *LoopGroup) shutdown() {
	g.mu.Lock()
	conns := make([]*ofconn.Conn, 0, len(g.members))
	for _, c := range g.members {
		conns = append(conns, c)
	}
	g.members = make(map[*Switch]*ofconn.Conn)
	g.heap = nil
	g.mu.Unlock()
	for _, c := range conns {
		c.Close() //nolint:errcheck // teardown path
	}
}

// pushLocked inserts into the (at, seq) min-heap. Caller holds g.mu.
func (g *LoopGroup) pushLocked(ev groupEvent) {
	g.seq++
	ev.seq = g.seq
	g.heap = append(g.heap, ev)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

// popLocked removes the earliest event. Caller holds g.mu and has
// checked the heap is non-empty.
func (g *LoopGroup) popLocked() groupEvent {
	ev := g.heap[0]
	last := len(g.heap) - 1
	g.heap[0] = g.heap[last]
	// Zero the vacated slot: the slice's slack would otherwise keep the
	// popped event — its switch and 4 KB-buffered connection —
	// reachable until a later push happens to overwrite it.
	g.heap[last] = groupEvent{}
	g.heap = g.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(g.heap) && eventBefore(g.heap[l], g.heap[m]) {
			m = l
		}
		if r < len(g.heap) && eventBefore(g.heap[r], g.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		g.heap[i], g.heap[m] = g.heap[m], g.heap[i]
		i = m
	}
	return ev
}

func eventBefore(a, b groupEvent) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}
