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
//   - StateQuery / StateReport: what took effect at a switch.
//
// Everything in between — the per-edge acks — travels switch-to-switch
// on the data-plane fabric and never touches the controller; see
// switchsim's plan agent. Every payload reuses the strict decoding
// style of core's plan codec: a malformed payload yields an error,
// never a panic or a partial struct.
package planwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
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
	buf = binary.AppendUvarint(buf, uint64(len(plan)))
	buf = append(buf, plan...)
	for _, fm := range p.Mods {
		if fm == nil {
			return nil, fmt.Errorf("planwire: nil flowmod in push to %d", p.Switch)
		}
		blob, err := openflow.Encode(fm)
		if err != nil {
			return nil, fmt.Errorf("planwire: encoding flowmod: %w", err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// DecodePush parses a Push payload: the plan through core.DecodePlan,
// then exactly one FlowMod per node the target owns. A target that
// owns no node, or an Oldest above Job, is rejected.
func DecodePush(data []byte) (*Push, error) {
	d := decoder{buf: data}
	if k := d.byte(); k != kindPush {
		return nil, fmt.Errorf("planwire: payload kind %d, want push: %w", k, ErrWire)
	}
	p := &Push{
		Job:      int(d.uvarint()),
		Oldest:   int(d.uvarint()),
		Interval: time.Duration(d.uvarint()),
		Switch:   topo.NodeID(d.uvarint()),
	}
	if p.Oldest > p.Job {
		return nil, fmt.Errorf("planwire: push of job %d names %d as oldest: %w", p.Job, p.Oldest, ErrWire)
	}
	planLen := d.uvarint()
	if planLen > 1<<26 {
		return nil, fmt.Errorf("planwire: plan of %d bytes: %w", planLen, ErrWire)
	}
	planBytes := d.take(int(planLen))
	if d.err != nil {
		return nil, d.err
	}
	plan, err := core.DecodePlan(planBytes)
	if err != nil {
		return nil, fmt.Errorf("planwire: plan: %w", err)
	}
	p.Plan = plan
	for i, nd := range plan.Nodes {
		if nd.Switch != p.Switch || d.err != nil {
			continue
		}
		blobLen := d.uvarint()
		if blobLen > openflow.MaxMessageLen {
			return nil, fmt.Errorf("planwire: flowmod of %d bytes: %w", blobLen, ErrWire)
		}
		blob := d.take(int(blobLen))
		if d.err != nil {
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
	if d.err != nil {
		return nil, d.err
	}
	if len(p.Mods) == 0 {
		return nil, fmt.Errorf("planwire: push to %d, which owns no plan node: %w", p.Switch, ErrWire)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("planwire: %d trailing bytes: %w", len(d.buf)-d.off, ErrWire)
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
	d := decoder{buf: data}
	if k := d.byte(); k != kindReport {
		return nil, fmt.Errorf("planwire: payload kind %d, want report: %w", k, ErrWire)
	}
	r := &Report{
		Job:      int(d.uvarint()),
		Switch:   topo.NodeID(d.uvarint()),
		AcksSent: int(d.uvarint()),
		AcksRecv: int(d.uvarint()),
		DupAcks:  int(d.uvarint()),
	}
	n := d.uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("planwire: report covers %d nodes: %w", n, ErrWire)
	}
	for i := 0; i < int(n) && d.err == nil; i++ {
		r.Nodes = append(r.Nodes, NodeReport{
			Index:      int(d.uvarint()),
			ReleasedBy: topo.NodeID(d.uvarint()),
			Started:    time.Duration(d.uvarint()),
			Finished:   time.Duration(d.uvarint()),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("planwire: %d trailing bytes: %w", len(d.buf)-d.off, ErrWire)
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
// job's flow, after an abort or a controller restart: whether a rule
// for the flow is installed (and where it forwards), and — in
// decentralized mode — which plan nodes the switch's plan agent has
// completed. The answer lets the engine reconstruct the global order
// ideal from purely local switch state. Before it answers, a switch
// halts the job's plan agent (no node starts after the answer, installs
// in flight finish before it, late peer acks are absorbed), and it
// answers only after every earlier message on that connection took
// effect: on a controller-driven connection the query is also the
// barrier for every FlowMod already written.
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
	d := decoder{buf: data}
	if k := d.byte(); k != kindStateQuery {
		return nil, fmt.Errorf("planwire: payload kind %d, want state query: %w", k, ErrWire)
	}
	q := &StateQuery{Job: int(d.uvarint())}
	if b := d.take(4); b != nil {
		q.NWDst = binary.BigEndian.Uint32(b)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("planwire: %d trailing bytes: %w", len(d.buf)-d.off, ErrWire)
	}
	return q, nil
}

// StateReport (switch → controller) answers a StateQuery with the
// switch's local view of the flow.
type StateReport struct {
	Job    int
	Switch topo.NodeID

	// RulePresent reports whether an exact-match rule for the queried
	// flow exists in the flow table; OutPort is its output port when
	// present.
	RulePresent bool
	OutPort     uint16

	// AgentDone lists the global plan-node indices the switch's plan
	// agent completed for this job (decentralized mode; empty when the
	// agent has no memory of the job), ascending.
	AgentDone []int
}

// Encode serialises a StateReport payload.
func (r *StateReport) Encode() []byte {
	buf := []byte{kindStateReport}
	buf = binary.AppendUvarint(buf, uint64(r.Job))
	buf = binary.AppendUvarint(buf, uint64(r.Switch))
	present := byte(0)
	if r.RulePresent {
		present = 1
	}
	buf = append(buf, present)
	buf = binary.AppendUvarint(buf, uint64(r.OutPort))
	buf = binary.AppendUvarint(buf, uint64(len(r.AgentDone)))
	for _, idx := range r.AgentDone {
		buf = binary.AppendUvarint(buf, uint64(idx))
	}
	return buf
}

// DecodeStateReport parses a StateReport payload.
func DecodeStateReport(data []byte) (*StateReport, error) {
	d := decoder{buf: data}
	if k := d.byte(); k != kindStateReport {
		return nil, fmt.Errorf("planwire: payload kind %d, want state report: %w", k, ErrWire)
	}
	r := &StateReport{
		Job:    int(d.uvarint()),
		Switch: topo.NodeID(d.uvarint()),
	}
	r.RulePresent = d.byte() == 1
	r.OutPort = uint16(d.uvarint())
	n := d.uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("planwire: state report covers %d nodes: %w", n, ErrWire)
	}
	for i := 0; i < int(n) && d.err == nil; i++ {
		r.AgentDone = append(r.AgentDone, int(d.uvarint()))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("planwire: %d trailing bytes: %w", len(d.buf)-d.off, ErrWire)
	}
	return r, nil
}

// decoder is a sticky-error cursor over payload bytes, mirroring the
// core plan codec's decoding discipline.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("planwire: truncated payload: %w", ErrWire)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}
