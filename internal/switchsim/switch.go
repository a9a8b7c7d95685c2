package switchsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// Faults injects switch misbehaviour for robustness testing. The
// boolean fields are deterministic always-on faults; the netem.Faults
// fields draw per-message fates from the switch's seeded Source, so a
// fixed seed pins the exact fault sequence.
type Faults struct {
	// DropBarriers makes the switch process barrier requests without
	// ever replying — the controller's round must time out.
	DropBarriers bool

	// DisconnectAfterFlowMods closes the control connection after the
	// N-th FlowMod has been applied (0 disables) — a mid-update switch
	// crash. The count includes FlowMods applied by the plan agent in
	// decentralized mode; the crash fires at most once per switch.
	DisconnectAfterFlowMods uint64

	// WipeTableOnCrash makes a DisconnectAfterFlowMods crash also
	// erase the flow table — the switch reconnects with the state of a
	// power-cycled box instead of a dropped TCP session.
	WipeTableOnCrash bool

	// DropPeerAcks makes the plan agent install its nodes but never
	// notify DAG successors — a decentralized job stalls and must
	// surface as a controller-side round timeout.
	DropPeerAcks bool

	// DuplicatePeerAcks sends every peer ack twice, exercising the
	// receiving agent's idempotence.
	DuplicatePeerAcks bool

	// FlowModFaults probabilistically corrupts the control channel's
	// FlowMod deliveries: Drop loses the message before the switch
	// processes it (a later barrier still replies — the switch never
	// knew), Dup applies it twice (OF 1.0 mods are idempotent),
	// Reordered holds it back by the drawn delay so control messages
	// behind it take effect first in wall/virtual time.
	FlowModFaults netem.Faults

	// BarrierFaults corrupts barrier replies: Drop swallows the reply
	// (the probabilistic cousin of DropBarriers), Dup sends it twice,
	// Reordered delays it.
	BarrierFaults netem.Faults

	// PeerAckFaults corrupts the plan agent's switch-to-switch acks:
	// the probabilistic generalization of DropPeerAcks and
	// DuplicatePeerAcks, plus reordering.
	PeerAckFaults netem.Faults
}

// Config parameterizes a simulated switch.
type Config struct {
	// Node is the switch's topology identity; the OpenFlow datapath ID
	// equals uint64(Node), matching the demo's integer datapath naming.
	Node topo.NodeID

	// InstallLatency delays each FlowMod before it takes effect in the
	// flow table (rule-installation cost; PAM'15-shaped distributions
	// recommended). Nil means instantaneous.
	InstallLatency netem.Latency

	// CtrlLatency delays every inbound control message before
	// processing, modelling control-channel propagation and switch
	// queueing. Per-switch variation of this latency is the asynchrony
	// that reorders updates across switches. Nil means none.
	CtrlLatency netem.Latency

	// PeerLatency delays each switch-to-switch plan-agent message (the
	// acks of decentralized execution) — a data-plane hop, typically
	// orders of magnitude below CtrlLatency. It is drawn at send time,
	// in the sender's send order, and elapses on Clock. Nil means none.
	PeerLatency netem.Latency

	// Source provides the deterministic randomness for the latency
	// distributions; nil creates a per-switch source seeded by the
	// node ID.
	Source *netem.Source

	// Faults optionally injects misbehaviour (dropped barriers,
	// mid-update disconnects).
	Faults Faults

	// Clock is the time base for latencies and peer acks. Nil selects
	// the wall clock; a simclock.Sim puts the whole switch on virtual
	// time (its latencies then elapse only when the simulation
	// advances). When Source is also set, the source's own clock wins
	// for latency sleeps. A peer ack in flight is an AfterFunc timer on
	// this clock, and nothing else is: a connected switch at rest costs
	// one goroutine, its blocking connection reader, and leaves no event
	// pending.
	Clock simclock.Clock

	// Deprecated: ignored, there is one switch layout. The field stays
	// until bench/tsubench stops setting it.
	Loops *LoopGroup

	// Logger receives connection lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Switch is one simulated OpenFlow switch.
type Switch struct {
	cfg    Config
	fabric *Fabric
	table  *FlowTable
	src    *netem.Source
	clock  simclock.Clock
	logger *slog.Logger
	agent  *planAgent

	flowModsApplied atomic.Uint64
	barriersSeen    atomic.Uint64
	crashed         atomic.Bool

	mu   sync.Mutex
	conn *ofconn.Conn // the live connection: nil once its loop has ended
	done chan struct{}
}

// NewSwitch creates a switch and registers it on the fabric.
func NewSwitch(f *Fabric, cfg Config) (*Switch, error) {
	clock := simclock.Or(cfg.Clock)
	src := cfg.Source
	if src == nil {
		src = netem.NewSourceClock(int64(cfg.Node), clock)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Switch{
		cfg:    cfg,
		fabric: f,
		table:  &FlowTable{},
		src:    src,
		clock:  clock,
		logger: logger.With("dpid", uint64(cfg.Node)),
	}
	s.agent = newPlanAgent(s)
	if err := f.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// NodeID returns the switch's topology identity.
func (s *Switch) NodeID() topo.NodeID { return s.cfg.Node }

// DatapathID returns the OpenFlow datapath identifier.
func (s *Switch) DatapathID() uint64 { return uint64(s.cfg.Node) }

// Table exposes the live flow table (data plane and tests read it).
func (s *Switch) Table() *FlowTable { return s.table }

// FlowModsApplied returns how many FlowMods have taken effect.
func (s *Switch) FlowModsApplied() uint64 { return s.flowModsApplied.Load() }

// BarriersSeen returns how many barrier requests were answered.
func (s *Switch) BarriersSeen() uint64 { return s.barriersSeen.Load() }

// features builds the switch's FEATURES_REPLY body from the fabric's
// port map, ports in PortNo order.
func (s *Switch) features() *openflow.FeaturesReply {
	pm, node := s.fabric.Ports(), s.cfg.Node
	fr := &openflow.FeaturesReply{
		DatapathID: s.DatapathID(),
		NBuffers:   256,
		NTables:    1,
		Ports:      make([]openflow.PhyPort, pm.NumPorts(node)),
	}
	// "s<node>-eth<port>" facing a switch, "s<node>-<host>" facing a
	// host: one allocation per name.
	sw := strconv.FormatUint(uint64(node), 10)
	for i := range fr.Ports {
		pp, port := &fr.Ports[i], uint16(i+1)
		pp.PortNo, pp.HWAddr = port, portHWAddr(s.DatapathID(), port)
		if nb, ok := pm.Neighbor(node, port); ok {
			pp.Name, pp.Peer = "s"+sw+"-eth"+strconv.Itoa(int(port)), uint32(nb)
		} else {
			host, _ := pm.Host(node, port)
			pp.Name = "s" + sw + "-" + host
		}
	}
	return fr
}

func portHWAddr(dpid uint64, port uint16) [6]byte {
	return [6]byte{0x02, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), byte(port >> 8), byte(port)}
}

// Connect dials the controller and returns once the dial succeeded.
// The switch-side handshake, then the control loop, run on the switch's
// own goroutine, as a real switch's connection manager runs them:
// dialing a fleet does not wait for each handshake in turn. A failed handshake is logged and ends the loop,
// which Connected then reports. Stop, or ctx cancellation, ends it too.
func (s *Switch) Connect(ctx context.Context, controllerAddr string) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", controllerAddr)
	if err != nil {
		return fmt.Errorf("switchsim: dialing controller: %w", err)
	}
	conn := ofconn.New(nc)
	done := make(chan struct{})

	s.mu.Lock()
	s.conn = conn
	s.done = done
	s.mu.Unlock()

	// The blocking reader is the switch's only goroutine: Stop closes
	// the connection itself, and ctx cancellation closes it from one
	// context callback.
	stopClose := context.AfterFunc(ctx, func() { conn.Close() }) //nolint:errcheck // unblocking the reader
	go func() {
		defer close(done)
		defer s.release(conn)
		defer conn.Close() //nolint:errcheck // loop exit path
		defer stopClose()
		if err := ofconn.HandshakeSwitch(conn, s.features()); err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				s.logger.Warn("handshake failed", "err", err)
			}
			return
		}
		s.controlLoop(ctx, conn)
	}()
	return nil
}

// release drops the switch's hold on conn once its control loop has
// ended, unless a keeper already redialed, and returns the connection's
// read buffer: a stopped switch keeps nothing of a dead connection.
func (s *Switch) release(conn *ofconn.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn, s.done = nil, nil
	}
	s.mu.Unlock()
	conn.Release()
}

// crashIfDue fires the DisconnectAfterFlowMods crash once the applied
// count crosses the threshold, at most once per switch: the flow table
// is optionally wiped, the plan agent forgets its in-flight jobs (a
// dead process has no memory), and the caller must drop the control
// connection. Reconnecting afterwards works normally — the crash does
// not re-fire, so tests can model "dies after N installs, comes back
// with the table intact or wiped".
func (s *Switch) crashIfDue(applied uint64) bool {
	n := s.cfg.Faults.DisconnectAfterFlowMods
	if n == 0 || applied < n || !s.crashed.CompareAndSwap(false, true) {
		return false
	}
	metrics.FaultsInjected.Inc()
	if s.cfg.Faults.WipeTableOnCrash {
		s.table.Wipe()
	}
	s.agent.reset()
	s.logger.Warn("fault injection: switch crash",
		"after_flowmods", applied, "wiped", s.cfg.Faults.WipeTableOnCrash)
	return true
}

// dropConnection closes the live control connection — the crash as the
// controller observes it. The control loop's blocking read returns and
// the loop exits.
func (s *Switch) dropConnection() {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck // crash path
	}
}

// Connected reports whether the control loop from the most recent
// Connect is still running. False before the first Connect, after
// Stop, once the handshake failed and once the controller side drops
// the connection — switch keepers poll this to know when to redial.
func (s *Switch) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// Stop closes the connection, which ends its handshake or control
// loop, and waits for the loop to exit. Safe to call multiple times or
// before Connect.
func (s *Switch) Stop() {
	s.mu.Lock()
	conn, done := s.conn, s.done
	s.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck // unblocking the reader
	}
	if done != nil {
		<-done
	}
}

// controlLoop processes control messages strictly in order — the
// property that gives BARRIER_REQUEST (and a StateQuery) its semantics:
// when the reply is sent, every earlier FlowMod has been applied.
func (s *Switch) controlLoop(ctx context.Context, conn *ofconn.Conn) {
	for {
		m, err := conn.ReadMessage()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logger.Warn("control connection read failed", "err", err)
			}
			return
		}
		// Control-channel latency: everything this switch does lags by
		// its own per-message delay, which is what desynchronizes
		// switches from each other.
		s.src.Sleep(s.cfg.CtrlLatency)

		if err := s.handle(conn, m); err != nil {
			s.logger.Warn("handling message failed", "type", m.MsgType().String(), "err", err)
			return
		}
		if ctx.Err() != nil {
			return
		}
	}
}

func (s *Switch) handle(conn *ofconn.Conn, m openflow.Message) error {
	switch msg := m.(type) {
	case *openflow.FlowMod:
		fd := s.src.Fault(s.cfg.Faults.FlowModFaults)
		if fd.Drop {
			// Lost on the channel before the switch processed it: the
			// rule never lands, yet a later barrier still replies — the
			// switch cannot acknowledge a message it never saw.
			metrics.FaultsInjected.Inc()
			return nil
		}
		if fd.Reordered {
			// The serial control loop cannot literally overtake itself;
			// holding the message (and everything behind it) back models
			// the rule taking effect later relative to other switches.
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
		}
		applications := 1
		if fd.Dup {
			metrics.FaultsInjected.Inc()
			applications = 2
		}
		for i := 0; i < applications; i++ {
			s.src.Sleep(s.cfg.InstallLatency)
			if oferr := s.table.Apply(msg); oferr != nil {
				return conn.WriteMessage(oferr)
			}
		}
		// A duplicated delivery is still one logical FlowMod: the
		// counter (and the crash threshold keyed on it) counts messages.
		applied := s.flowModsApplied.Add(1)
		if s.crashIfDue(applied) {
			return fmt.Errorf("fault injection: disconnecting after %d flowmods", applied)
		}
		return nil
	case *openflow.BarrierRequest:
		s.barriersSeen.Add(1)
		if s.cfg.Faults.DropBarriers {
			return nil // fault injection: swallow the reply
		}
		fd := s.src.Fault(s.cfg.Faults.BarrierFaults)
		if fd.Drop {
			metrics.FaultsInjected.Inc()
			return nil
		}
		if fd.Reordered {
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
		}
		reply := &openflow.BarrierReply{}
		reply.SetXid(msg.Xid())
		if err := conn.WriteMessage(reply); err != nil {
			return err
		}
		if fd.Dup {
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
			return conn.WriteMessage(reply)
		}
		return nil
	case *openflow.EchoRequest:
		reply := &openflow.EchoReply{Data: msg.Data}
		reply.SetXid(msg.Xid())
		return conn.WriteMessage(reply)
	case *openflow.Vendor:
		// Decentralized execution: the controller pushes the job's plan
		// once; the agent takes over from there.
		if msg.Vendor != planwire.VendorID {
			s.logger.Warn("unknown vendor message", "vendor", msg.Vendor)
			return nil
		}
		// The controller asks what took effect for a job (after an
		// abort, or a restart): halt the job's plan agent here, then
		// answer from the live flow table and the agent's memory. The
		// loop is serial, so every earlier message on this connection
		// has taken effect by now: the answer is their barrier too.
		if planwire.IsStateQuery(msg.Data) {
			q, err := planwire.DecodeStateQuery(msg.Data)
			if err != nil {
				s.logger.Warn("bad state query", "err", err)
				e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
				e.SetXid(msg.Xid())
				return conn.WriteMessage(e)
			}
			s.agent.halt(q.Job)
			rep := &planwire.StateReport{Job: q.Job, Switch: s.cfg.Node, Rules: s.table.rules(q.NWDst), AgentDone: s.agent.doneNodes(q.Job)}
			v := &openflow.Vendor{Vendor: planwire.VendorID, Data: rep.Encode()}
			_, err = conn.Send(v)
			return err
		}
		push, err := planwire.DecodePush(msg.Data)
		if err != nil || push.Switch != s.cfg.Node {
			s.logger.Warn("bad plan push", "err", err)
			e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
			e.SetXid(msg.Xid())
			return conn.WriteMessage(e)
		}
		s.agent.start(push, func(r *planwire.Report) error {
			v := &openflow.Vendor{Vendor: planwire.VendorID, Data: r.Encode()}
			_, err := conn.Send(v)
			return err
		})
		return nil
	case *openflow.Hello:
		return nil
	case *openflow.EchoReply, *openflow.BarrierReply, *openflow.Error:
		// Replies flowing switch-ward are controller bugs; log & drop.
		s.logger.Warn("unexpected reply on switch", "type", m.MsgType().String())
		return nil
	default:
		// Any type the switch does not speak, Unsupported included: OF
		// 1.0's answer, and the connection stays up.
		e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
		e.SetXid(m.Xid())
		return conn.WriteMessage(e)
	}
}
