// Package controller implements the SDN controller of the prototype:
// the Go counterpart of the paper's Ryu app "ofctl_rest_own.py". It
// accepts OpenFlow connections from switches, tracks datapaths, and
// executes policy updates as rounds of FlowMods delimited by barrier
// request/reply exchanges, exactly as §2 of the paper describes:
//
//	"In the current round, there are a set of switches which have to
//	be updated. The SDN controller retrieves the corresponding
//	OpenFlow message for every switch in the set and sends them out to
//	the switches. Later, the SDN controller sends a barrier request to
//	every switch of the set and waits for barrier replies. For every
//	barrier reply received by the SDN controller, it determines the
//	source switch. This switch is removed from the set of switches of
//	the current round [...]. If the set is empty, the current round
//	finishes and the SDN controller goes on to process the next round
//	[...]. If the message object does not have a next round, the SDN
//	controller deletes the message from the queue and starts
//	processing the next message."
package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"tsu/internal/journal"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// Config parameterizes the controller.
type Config struct {
	// Topology is the shared network map; port numbers for FlowMod
	// actions are derived from its canonical port map.
	Topology *topo.Graph

	// RoundTimeout bounds one round's barrier collection (default 30s).
	RoundTimeout time.Duration

	// Clock is the time base for round timings and inter-round pauses.
	// Nil selects the wall clock; a simclock.Sim (driven by
	// Sim.AutoAdvance, with the switches on the same clock) runs
	// updates in virtual time — barriers still synchronize on real
	// message acks, but every modelled latency and every reported
	// RoundTiming elapses on the virtual clock.
	Clock simclock.Clock

	// Journal, when non-nil, makes the engine durable: job admissions,
	// one dispatched-batch record per release wave (carrying the
	// confirms since the job's last record), and terminal phases are
	// journaled write-ahead, and Engine.Recover replays them after a
	// restart. Nil runs the engine in-memory only.
	Journal *journal.Journal

	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// flowPriority is the priority of every policy rule the controller
// installs.
const flowPriority = 100

// Controller accepts switch connections and executes update jobs.
type Controller struct {
	cfg    Config
	ports  *topo.PortMap
	clock  simclock.Clock
	logger *slog.Logger

	mu        sync.Mutex
	listener  net.Listener
	datapaths map[uint64]*datapath
	dpWaiters []chan struct{}

	// planReports routes decoded decentralized completion reports to
	// the job waiting on them, keyed by job ID; stateReports routes
	// recovery state reports the same way.
	planMu       sync.Mutex
	planReports  map[int]chan<- *planwire.Report
	stateReports map[int]chan<- *planwire.StateReport

	// started anchors the /v1/healthz uptime report.
	started time.Time

	engine *Engine
}

// datapath is one connected switch.
type datapath struct {
	dpid uint64
	conn *ofconn.Conn

	mu    sync.Mutex
	sinks map[uint32]barrierSink // in-flight barriers, resolved by xid
}

// New creates a controller for a topology.
func New(cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, errors.New("controller: topology required")
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Controller{
		cfg:       cfg,
		ports:     topo.NewPortMap(cfg.Topology),
		clock:     simclock.Or(cfg.Clock),
		logger:    cfg.Logger,
		datapaths: make(map[uint64]*datapath),
	}
	c.started = c.clock.Now()
	c.engine = newEngine(c)
	return c, nil
}

// Uptime reports how long the controller has been running, on its own
// clock (virtual under simclock).
func (c *Controller) Uptime() time.Duration { return c.clock.Now().Sub(c.started) }

// Start listens on addr ("127.0.0.1:0" for an ephemeral port), runs the
// accept loop and the update engine until ctx is cancelled, and returns
// the bound address.
func (c *Controller) Start(ctx context.Context, addr string) (string, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return "", fmt.Errorf("controller: listen: %w", err)
	}
	c.mu.Lock()
	c.listener = ln
	c.mu.Unlock()

	// The one shutdown hook: it unblocks accept and every registered
	// datapath's reader. A handshake that finishes later sees ctx done
	// when it registers, and closes itself.
	go func() {
		<-ctx.Done()
		ln.Close() //nolint:errcheck // unblocking accept
		c.mu.Lock()
		for _, dp := range c.datapaths {
			dp.conn.Close() //nolint:errcheck // unblocking the reader
		}
		c.mu.Unlock()
	}()
	go c.acceptLoop(ctx, ln)
	c.engine.run(ctx)
	return ln.Addr().String(), nil
}

func (c *Controller) acceptLoop(ctx context.Context, ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				c.logger.Warn("accept failed", "err", err)
			}
			return
		}
		go c.serveSwitch(ctx, nc)
	}
}

func (c *Controller) serveSwitch(ctx context.Context, nc net.Conn) {
	conn := ofconn.New(nc)
	defer conn.Release()
	defer conn.Close() //nolint:errcheck // loop exit
	features, err := ofconn.HandshakeController(conn)
	if err != nil {
		c.logger.Warn("handshake failed", "peer", nc.RemoteAddr().String(), "err", err)
		return
	}
	dp := &datapath{
		dpid:  features.DatapathID,
		conn:  conn,
		sinks: make(map[uint32]barrierSink),
	}
	c.mu.Lock()
	if ctx.Err() != nil {
		// Start's shutdown hook has run or is about to, and it closes
		// only registered datapaths: this one closes itself.
		c.mu.Unlock()
		return
	}
	if old, dup := c.datapaths[dp.dpid]; dup {
		old.conn.Close() //nolint:errcheck // superseded connection
	}
	c.datapaths[dp.dpid] = dp
	waiters := c.dpWaiters
	c.dpWaiters = nil
	c.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	c.logger.Info("switch connected", "dpid", ofconn.FormatDpid(dp.dpid))

	c.readLoop(ctx, dp)

	c.mu.Lock()
	if c.datapaths[dp.dpid] == dp {
		delete(c.datapaths, dp.dpid)
	}
	c.mu.Unlock()
	c.logger.Info("switch disconnected", "dpid", ofconn.FormatDpid(dp.dpid))
}

func (c *Controller) readLoop(ctx context.Context, dp *datapath) {
	for {
		m, err := dp.conn.ReadMessage()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.logger.Warn("read failed", "dpid", dp.dpid, "err", err)
			}
			return
		}
		switch msg := m.(type) {
		case *openflow.BarrierReply:
			// Every barrier resolves through its sink: the reply becomes a
			// plain ack value in the owning walk's channel — no goroutine
			// ever waits per barrier. A reply nobody waits for anymore (its
			// walk timed out or was cancelled) finds no sink and is ignored.
			xid := msg.Xid()
			dp.mu.Lock()
			s, ok := dp.sinks[xid]
			delete(dp.sinks, xid)
			dp.mu.Unlock()
			if ok {
				c.engine.disp.deliver(s, c.clock.Now())
			}
		case *openflow.EchoRequest:
			reply := &openflow.EchoReply{Data: msg.Data}
			reply.SetXid(msg.Xid())
			if err := dp.conn.WriteMessage(reply); err != nil {
				return
			}
		case *openflow.Vendor:
			if msg.Vendor != planwire.VendorID {
				c.logger.Warn("unknown vendor message", "dpid", dp.dpid, "vendor", msg.Vendor)
				continue
			}
			if planwire.IsStateReport(msg.Data) {
				sr, err := planwire.DecodeStateReport(msg.Data)
				if err != nil {
					c.logger.Warn("malformed state report", "dpid", dp.dpid, "err", err)
					continue
				}
				c.planMu.Lock()
				ch := c.stateReports[sr.Job]
				c.planMu.Unlock()
				if ch == nil {
					c.logger.Warn("state report for unknown job", "dpid", dp.dpid, "job", sr.Job)
					continue
				}
				select {
				case ch <- sr: // buffered for one report per queried switch
				default:
					c.logger.Warn("dropping surplus state report", "dpid", dp.dpid, "job", sr.Job)
				}
				continue
			}
			r, err := planwire.DecodeReport(msg.Data)
			if err != nil {
				c.logger.Warn("malformed completion report", "dpid", dp.dpid, "err", err)
				continue
			}
			c.planMu.Lock()
			ch := c.planReports[r.Job]
			c.planMu.Unlock()
			if ch == nil {
				c.logger.Warn("completion report for unknown job", "dpid", dp.dpid, "job", r.Job)
				continue
			}
			select {
			case ch <- r: // buffered for one report per switch
			default: // more reports than switches: drop rather than stall the read loop
				c.logger.Warn("dropping surplus completion report", "dpid", dp.dpid, "job", r.Job)
			}
		case *openflow.Error:
			c.logger.Warn("switch reported error", "dpid", dp.dpid, "err", msg.Error())
		default:
			// An Unsupported too: logged, and the datapath stays up.
			c.logger.Warn("unexpected message", "dpid", dp.dpid, "type", m.MsgType().String())
		}
	}
}

// Datapaths returns the connected datapath IDs in ascending order.
func (c *Controller) Datapaths() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.datapaths))
	for dpid := range c.datapaths {
		out = append(out, dpid)
	}
	slices.Sort(out)
	return out
}

// WaitForSwitches blocks until at least n switches are connected.
func (c *Controller) WaitForSwitches(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		have := len(c.datapaths)
		var waiter chan struct{}
		if have < n {
			waiter = make(chan struct{})
			c.dpWaiters = append(c.dpWaiters, waiter)
		}
		c.mu.Unlock()
		if waiter == nil {
			return nil
		}
		select {
		case <-waiter:
		case <-ctx.Done():
			return fmt.Errorf("controller: waiting for %d switches (%d connected): %w", n, have, ctx.Err())
		}
	}
}

func (c *Controller) datapath(dpid uint64) (*datapath, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dp, ok := c.datapaths[dpid]
	if !ok {
		return nil, fmt.Errorf("controller: datapath %d not connected", dpid)
	}
	return dp, nil
}

// SendVendor sends a vendor/experimenter message carrying an opaque
// planwire payload to a switch — the decentralized engine's plan push
// channel.
func (c *Controller) SendVendor(dpid uint64, data []byte) error {
	dp, err := c.datapath(dpid)
	if err != nil {
		return err
	}
	_, err = dp.conn.Send(&openflow.Vendor{Vendor: planwire.VendorID, Data: data})
	return err
}

// registerPlanReports directs completion reports for a job to ch.
func (c *Controller) registerPlanReports(job int, ch chan<- *planwire.Report) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planReports == nil {
		c.planReports = make(map[int]chan<- *planwire.Report)
	}
	c.planReports[job] = ch
}

// unregisterPlanReports stops routing a job's completion reports.
func (c *Controller) unregisterPlanReports(job int) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	delete(c.planReports, job)
}

// registerStateReports directs recovery state reports for a job to ch.
func (c *Controller) registerStateReports(job int, ch chan<- *planwire.StateReport) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.stateReports == nil {
		c.stateReports = make(map[int]chan<- *planwire.StateReport)
	}
	c.stateReports[job] = ch
}

// unregisterStateReports stops routing a job's state reports.
func (c *Controller) unregisterStateReports(job int) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	delete(c.stateReports, job)
}

// PathFlowMod builds the FlowMod that makes switch `node` forward the
// flow toward `succ` (a neighboring switch on the path).
func (c *Controller) PathFlowMod(node, succ topo.NodeID, match openflow.Match, cmd openflow.FlowModCommand) (*openflow.FlowMod, error) {
	port := c.ports.Port(node, succ)
	if port == 0 {
		return nil, fmt.Errorf("controller: no port from %d to %d in topology", node, succ)
	}
	return &openflow.FlowMod{
		Match:    match,
		Command:  cmd,
		Priority: flowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}, nil
}

// HostFlowMod builds the FlowMod that makes the destination switch
// deliver the flow to its attached host.
func (c *Controller) HostFlowMod(node topo.NodeID, host string, match openflow.Match, cmd openflow.FlowModCommand) (*openflow.FlowMod, error) {
	port, ok := c.ports.HostPort(node, host)
	if !ok {
		return nil, fmt.Errorf("controller: host %q not attached to switch %d", host, node)
	}
	return &openflow.FlowMod{
		Match:    match,
		Command:  cmd,
		Priority: flowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}, nil
}

// InstallPath installs the flow's rules along a path: every switch
// forwards to its successor and the final switch delivers to host. The
// path is walked as a plan without edges — every switch gets its
// FlowAdd and a barrier at once — and the policy is fully active when
// the last barrier reply is in.
func (c *Controller) InstallPath(ctx context.Context, path topo.Path, match openflow.Match, host string) error {
	if err := path.Validate(); err != nil {
		return err
	}
	mods := make([]*openflow.FlowMod, len(path))
	for i := range path {
		var fm *openflow.FlowMod
		var err error
		switch {
		case i+1 < len(path):
			fm, err = c.PathFlowMod(path[i], path[i+1], match, openflow.FlowAdd)
		case host != "":
			fm, err = c.HostFlowMod(path[i], host, match, openflow.FlowAdd)
		default:
			continue // the destination only barriers
		}
		if err != nil {
			return err
		}
		mods[i] = fm
	}
	return c.engine.walkFlat(ctx, path, mods)
}

// Engine returns the update engine (job queue).
func (c *Controller) Engine() *Engine { return c.engine }
