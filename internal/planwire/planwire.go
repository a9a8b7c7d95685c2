// Package planwire defines the control-channel payloads of
// decentralized plan execution, carried inside OpenFlow VENDOR
// messages (the 1.0 experimenter escape hatch) over the existing
// controller↔switch connection:
//
//   - Push (controller → switch): the job's whole plan, in the
//     encoding the journal writes (core.EncodePlan), the target switch
//     and the FlowMod of each node it owns, one message per switch. The
//     switch derives its share — its own installs, the in-edge acks to
//     wait for, the out-edges to notify — from the plan.
//   - Report (switch → controller): the terminal completion report —
//     per-node install timings as offsets from push receipt, the
//     releasing predecessor of each install, and the switch's peer
//     message counters.
//   - StateQuery / StateReport: what took effect at a switch — its
//     rules for the flow, tagged or untagged, and its agent's nodes.
//
// Everything in between — the per-edge acks — travels switch-to-switch
// on the data-plane fabric and never touches the controller; see
// switchsim's plan agent. Every payload is read by internal/wirefmt,
// the reader of the journal and the plan codec too: a malformed or
// non-canonical payload yields an error, never a panic or a partial
// struct, and every payload has one byte form.
package planwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
	"tsu/internal/wirefmt"
)

// VendorID identifies this repository's vendor messages ("\0TSU").
const VendorID uint32 = 0x00545355

// Payload kind discriminators (first payload byte).
const (
	kindPush        = 1
	kindReport      = 2
	kindStateQuery  = 3
	kindStateReport = 4
)

// ErrWire marks malformed planwire payloads; match with errors.Is.
var ErrWire = errors.New("malformed planwire payload")

// maxNodes bounds the node lists of a report and a state report.
const maxNodes = 1 << 20

// Push is the controller's one-shot message to a switch: the job's
// whole plan, from which the switch's plan agent derives its own nodes
// and their in- and out-edges, and the FlowMod of each node it owns.
type Push struct {
	// Job is the controller-side job id, echoed in acks and the report.
	Job int

	// Oldest is the lowest id of a job the controller still holds
	// unfinished, at most Job: the switch may forget every job below it
	// that has nothing left to run, and every ack buffered for one.
	Oldest int

	// Interval pauses a dependent install after its release (the REST
	// message's "interval", applied switch-locally).
	Interval time.Duration

	// Switch is the target, which executes the plan nodes it owns.
	Switch topo.NodeID

	// Plan is the job's whole DAG. DecodePush sets it; EncodePush
	// writes the caller's core.EncodePlan bytes instead.
	Plan *core.Plan

	// Mods holds one FlowMod per plan node Switch owns, in ascending
	// node order.
	Mods []*openflow.FlowMod
}

// NodeReport is one install's outcome inside a Report. Timings are
// offsets from the moment the push arrived at the switch — the agent
// has no global clock; the controller anchors them at its broadcast
// time.
type NodeReport struct {
	// Index is the node's global plan index.
	Index int

	// ReleasedBy names the predecessor switch whose ack arrived last
	// (zero for installs with no in-edges).
	ReleasedBy topo.NodeID

	// Started and Finished bound the install (FlowMod applied to
	// confirmed), as offsets from push receipt.
	Started, Finished time.Duration
}

// Report is a switch's terminal completion report: every owned node
// installed, plus the peer-messaging counters for the job.
type Report struct {
	Job    int
	Switch topo.NodeID

	// AcksSent counts peer acks this switch sent (including duplicates
	// injected by fault testing); AcksRecv counts distinct acks
	// received; DupAcks counts redundant deliveries that idempotence
	// absorbed.
	AcksSent, AcksRecv, DupAcks int

	// Nodes reports each owned node, ascending by completion time.
	Nodes []NodeReport
}

// EncodePush serialises a Push payload (excluding the vendor id, which
// the OpenFlow Vendor envelope carries). plan is core.EncodePlan of the
// job's plan, written verbatim; p.Plan is not read. The wire carries no
// FlowMod count — DecodePush reads one per owned node — so p.Mods must
// hold exactly one non-nil FlowMod per node p.Switch owns.
func EncodePush(p *Push, plan []byte) ([]byte, error) {
	buf := []byte{kindPush}
	buf = binary.AppendUvarint(buf, uint64(p.Job))
	buf = binary.AppendUvarint(buf, uint64(p.Oldest))
	buf = binary.AppendUvarint(buf, uint64(p.Interval))
	buf = binary.AppendUvarint(buf, uint64(p.Switch))
	buf = wirefmt.AppendBytes(buf, plan)
	for _, fm := range p.Mods {
		if fm == nil {
			return nil, fmt.Errorf("planwire: nil flowmod in push to %d", p.Switch)
		}
		blob, err := openflow.Encode(fm)
		if err != nil {
			return nil, fmt.Errorf("planwire: encoding flowmod: %w", err)
		}
		buf = wirefmt.AppendBytes(buf, blob)
	}
	return buf, nil
}

// DecodePush parses a Push payload: the plan through core.DecodePlan,
// then exactly one FlowMod per node the target owns. A target that
// owns no node, or an Oldest above Job, is rejected.
func DecodePush(data []byte) (*Push, error) {
	d := wirefmt.NewDecoder(data, ErrWire)
	if k := d.Byte(); k != kindPush {
		return nil, fmt.Errorf("planwire: payload kind %d, want push: %w", k, ErrWire)
	}
	p := &Push{
		Job:      d.Int(),
		Oldest:   d.Int(),
		Interval: time.Duration(d.Uvarint()),
		Switch:   topo.NodeID(d.Uvarint()),
	}
	if p.Oldest > p.Job {
		return nil, fmt.Errorf("planwire: push of job %d names %d as oldest: %w", p.Job, p.Oldest, ErrWire)
	}
	planBytes := d.Bytes(1 << 26)
	if err := d.Err(); err != nil {
		return nil, err
	}
	plan, err := core.DecodePlan(planBytes)
	if err != nil {
		return nil, fmt.Errorf("planwire: plan: %w", err)
	}
	p.Plan = plan
	for i, nd := range plan.Nodes {
		if nd.Switch != p.Switch {
			continue
		}
		blob := d.Bytes(openflow.MaxMessageLen)
		if d.Err() != nil {
			break
		}
		m, err := openflow.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("planwire: flowmod: %w", err)
		}
		fm, ok := m.(*openflow.FlowMod)
		if !ok {
			return nil, fmt.Errorf("planwire: node %d carries a %s, want FLOW_MOD: %w", i, m.MsgType(), ErrWire)
		}
		p.Mods = append(p.Mods, fm)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(p.Mods) == 0 {
		return nil, fmt.Errorf("planwire: push to %d, which owns no plan node: %w", p.Switch, ErrWire)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return p, nil
}

// Encode serialises a Report payload.
func (r *Report) Encode() []byte {
	buf := []byte{kindReport}
	buf = binary.AppendUvarint(buf, uint64(r.Job))
	buf = binary.AppendUvarint(buf, uint64(r.Switch))
	buf = binary.AppendUvarint(buf, uint64(r.AcksSent))
	buf = binary.AppendUvarint(buf, uint64(r.AcksRecv))
	buf = binary.AppendUvarint(buf, uint64(r.DupAcks))
	buf = binary.AppendUvarint(buf, uint64(len(r.Nodes)))
	for _, nr := range r.Nodes {
		buf = binary.AppendUvarint(buf, uint64(nr.Index))
		buf = binary.AppendUvarint(buf, uint64(nr.ReleasedBy))
		buf = binary.AppendUvarint(buf, uint64(nr.Started))
		buf = binary.AppendUvarint(buf, uint64(nr.Finished))
	}
	return buf
}

// DecodeReport parses a Report payload.
func DecodeReport(data []byte) (*Report, error) {
	d := wirefmt.NewDecoder(data, ErrWire)
	if k := d.Byte(); k != kindReport {
		return nil, fmt.Errorf("planwire: payload kind %d, want report: %w", k, ErrWire)
	}
	r := &Report{
		Job:      d.Int(),
		Switch:   topo.NodeID(d.Uvarint()),
		AcksSent: d.Int(),
		AcksRecv: d.Int(),
		DupAcks:  d.Int(),
	}
	n := d.Len(maxNodes)
	for i := 0; i < n && d.Err() == nil; i++ {
		r.Nodes = append(r.Nodes, NodeReport{
			Index:      d.Int(),
			ReleasedBy: topo.NodeID(d.Uvarint()),
			Started:    time.Duration(d.Uvarint()),
			Finished:   time.Duration(d.Uvarint()),
		})
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return r, nil
}

// IsStateQuery peeks whether a payload is a StateQuery.
func IsStateQuery(data []byte) bool {
	return len(data) > 0 && data[0] == kindStateQuery
}

// IsStateReport peeks whether a payload is a StateReport.
func IsStateReport(data []byte) bool {
	return len(data) > 0 && data[0] == kindStateReport
}

// StateQuery (controller → switch) asks a switch what it knows about a
// job's flow, after an abort or a controller restart: its rules for
// the flow's nw_dst, tagged or untagged, and — in decentralized mode —
// which plan nodes the switch's plan agent has completed. The answer
// lets the engine reconstruct the global order ideal from purely local
// switch state. Before it answers, a switch halts the job's plan agent
// (no node starts after the answer, installs in flight finish before
// it, late peer acks are absorbed), and it answers only after every
// earlier message on that connection took effect: on a controller-
// driven connection the query is also the barrier for every FlowMod
// already written.
type StateQuery struct {
	// Job is the queried job's id, echoed in the StateReport.
	Job int

	// NWDst identifies the flow (exact-match IPv4 destination).
	NWDst uint32
}

// Encode serialises a StateQuery payload.
func (q *StateQuery) Encode() []byte {
	buf := []byte{kindStateQuery}
	buf = binary.AppendUvarint(buf, uint64(q.Job))
	buf = binary.BigEndian.AppendUint32(buf, q.NWDst)
	return buf
}

// DecodeStateQuery parses a StateQuery payload.
func DecodeStateQuery(data []byte) (*StateQuery, error) {
	d := wirefmt.NewDecoder(data, ErrWire)
	if k := d.Byte(); k != kindStateQuery {
		return nil, fmt.Errorf("planwire: payload kind %d, want state query: %w", k, ErrWire)
	}
	q := &StateQuery{Job: d.Int()}
	if b := d.Take(4); b != nil {
		q.NWDst = binary.BigEndian.Uint32(b)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return q, nil
}

// StateReport (switch → controller) answers a StateQuery with the
// switch's local view of the flow.
type StateReport struct {
	Job    int
	Switch topo.NodeID

	// Rules lists every flow-table rule whose match pins the queried
	// nw_dst, tagged or untagged, in table order (highest priority
	// first); empty when the table holds none.
	Rules []Rule

	// AgentDone lists the global plan-node indices the switch's plan
	// agent completed for this job (decentralized mode; empty when the
	// agent has no memory of the job), ascending.
	AgentDone []int
}

// Rule is one flow-table rule as a StateReport carries it: its match
// and what its actions do to an untagged packet — send it out Port (0
// for nowhere) with VLAN Tag (openflow.VLANNone: untagged).
type Rule struct {
	Match     openflow.Match
	Port, Tag uint16
}

// RuleOf is the Rule of a match and its actions.
func RuleOf(m openflow.Match, actions []openflow.Action) Rule {
	pkt := openflow.UntaggedPacket(m.NWDst)
	port, _ := openflow.ApplyActions(actions, &pkt)
	return Rule{Match: m, Port: port, Tag: pkt.VLAN}
}

// Encode serialises a StateReport payload.
func (r *StateReport) Encode() []byte {
	buf := []byte{kindStateReport}
	buf = binary.AppendUvarint(buf, uint64(r.Job))
	buf = binary.AppendUvarint(buf, uint64(r.Switch))
	buf = binary.AppendUvarint(buf, uint64(len(r.Rules)))
	for i := range r.Rules {
		buf = r.Rules[i].Match.AppendWire(buf)
		buf = binary.BigEndian.AppendUint16(buf, r.Rules[i].Port)
		buf = binary.BigEndian.AppendUint16(buf, r.Rules[i].Tag)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.AgentDone)))
	for _, idx := range r.AgentDone {
		buf = binary.AppendUvarint(buf, uint64(idx))
	}
	return buf
}

// DecodeStateReport parses a StateReport payload.
func DecodeStateReport(data []byte) (*StateReport, error) {
	d := wirefmt.NewDecoder(data, ErrWire)
	if k := d.Byte(); k != kindStateReport {
		return nil, fmt.Errorf("planwire: payload kind %d, want state report: %w", k, ErrWire)
	}
	r := &StateReport{
		Job:    d.Int(),
		Switch: topo.NodeID(d.Uvarint()),
	}
	const ruleLen = openflow.MatchLen + 4
	n := d.Len(len(data) / ruleLen)
	for i := 0; i < n && d.Err() == nil; i++ {
		if b := d.Take(ruleLen); b != nil {
			rule := Rule{Port: binary.BigEndian.Uint16(b[openflow.MatchLen:]), Tag: binary.BigEndian.Uint16(b[openflow.MatchLen+2:])}
			rule.Match.DecodeWire(b) //nolint:errcheck // b holds a whole match
			r.Rules = append(r.Rules, rule)
		}
	}
	n = d.Len(maxNodes)
	for i := 0; i < n && d.Err() == nil; i++ {
		r.AgentDone = append(r.AgentDone, d.Int())
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return r, nil
}
