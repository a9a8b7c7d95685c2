package switchsim

import (
	"fmt"
	"sync"
	"time"

	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// ProbeOutcome classifies a data-plane probe's fate.
type ProbeOutcome int

const (
	// ProbeDelivered: the probe reached a host port.
	ProbeDelivered ProbeOutcome = iota
	// ProbeDropped: a switch had no matching rule or an invalid port.
	ProbeDropped
	// ProbeTTLExceeded: the probe exceeded its hop budget (forwarding
	// loop).
	ProbeTTLExceeded
)

func (o ProbeOutcome) String() string {
	switch o {
	case ProbeDelivered:
		return "delivered"
	case ProbeDropped:
		return "dropped"
	case ProbeTTLExceeded:
		return "ttl-exceeded"
	}
	return "unknown"
}

// ProbeResult is the trace of one probe packet: every switch visited in
// order, the outcome, and the delivering host (when delivered).
type ProbeResult struct {
	Visited topo.Path
	Outcome ProbeOutcome
	Host    string
}

// VisitedBefore reports whether the probe crossed w before its final
// switch — the waypoint-enforcement predicate on delivered probes.
func (r *ProbeResult) VisitedBefore(w topo.NodeID) bool {
	for _, v := range r.Visited[:max(0, len(r.Visited)-1)] {
		if v == w {
			return true
		}
	}
	return false
}

// Fabric is the in-memory data plane: it wires simulated switches
// according to the topology's canonical port map and walks probe
// packets hop by hop. Each hop reads the current flow table of the
// switch it is at — exactly like a real packet, a probe in flight
// observes whatever mixture of old and new rules the asynchronous
// update has produced so far.
type Fabric struct {
	graph *topo.Graph
	ports *topo.PortMap

	mu       sync.RWMutex
	switches map[topo.NodeID]*Switch
}

// NewFabric builds the data plane for a topology.
func NewFabric(g *topo.Graph) *Fabric {
	return &Fabric{
		graph:    g,
		ports:    topo.NewPortMap(g),
		switches: make(map[topo.NodeID]*Switch),
	}
}

// Ports exposes the canonical port map (shared with the controller).
func (f *Fabric) Ports() *topo.PortMap { return f.ports }

// Graph returns the wired topology.
func (f *Fabric) Graph() *topo.Graph { return f.graph }

// register attaches a switch to the fabric (called by NewSwitch).
func (f *Fabric) register(s *Switch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.graph.HasNode(s.NodeID()) {
		return fmt.Errorf("switchsim: switch %d not in topology", s.NodeID())
	}
	if _, dup := f.switches[s.NodeID()]; dup {
		return fmt.Errorf("switchsim: switch %d already registered", s.NodeID())
	}
	f.switches[s.NodeID()] = s
	return nil
}

// Switch returns the registered switch for a node, or nil.
func (f *Fabric) Switch(n topo.NodeID) *Switch {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.switches[n]
}

// deliverPeerAck carries one plan-agent ack from one switch to
// another: the sender's PeerLatency (a data-plane hop, not a controller
// round trip) is drawn now, in send order, and together with any
// injected extra delay (fault reordering) becomes one timer on the
// sender's clock that hands the ack to the target's agent. Delivery
// order across concurrent acks is whatever the latencies produce — the
// receiving agent is built to absorb reordering and duplication.
func (f *Fabric) deliverPeerAck(from *Switch, to topo.NodeID, ack PeerAck, extra time.Duration) {
	delay := from.src.Sample(from.cfg.PeerLatency) + extra
	from.clock.AfterFunc(delay, func() {
		if tgt := f.Switch(to); tgt != nil {
			tgt.agent.deliver(ack)
		}
	})
}

// Inject walks an untagged probe for flow nwDst starting at switch
// `at` with the given hop budget. The walk is performed in the caller's
// goroutine; every hop consults the live flow table of the switch it
// reaches, and VLAN set/strip actions rewrite the probe in flight (the
// mechanism behind two-phase tagged updates).
func (f *Fabric) Inject(at topo.NodeID, nwDst uint32, ttl int) ProbeResult {
	var res ProbeResult
	pkt := openflow.UntaggedPacket(nwDst)
	cur := at
	for hops := 0; ; hops++ {
		sw := f.Switch(cur)
		if sw == nil {
			res.Outcome = ProbeDropped
			return res
		}
		res.Visited = append(res.Visited, cur)
		if hops >= ttl {
			res.Outcome = ProbeTTLExceeded
			return res
		}
		actions, ok := sw.Table().LookupKey(pkt)
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		port, ok := openflow.ApplyActions(actions, &pkt)
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		if host, isHost := f.ports.Host(cur, port); isHost {
			res.Outcome = ProbeDelivered
			res.Host = host
			return res
		}
		next, ok := f.ports.Neighbor(cur, port)
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		cur = next
	}
}
