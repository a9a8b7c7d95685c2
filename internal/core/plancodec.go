package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tsu/internal/topo"
	"tsu/internal/wirefmt"
)

// Binary wire codec for Plan: the canonical serialization traces and
// tools use to carry a dependency plan alongside the JSON shape
// summary. The format is versioned, length-prefixed, and strictly
// canonical — decode(encode(p)) == p and encode(decode(b)) == b for
// every valid b — so it is fuzzable for round-trip identity
// (FuzzPlanRoundTrip). Its bytes are read and written by
// internal/wirefmt, the journal's and planwire's codec too.
//
//	magic "TSUP", version 1
//	uvarint len(algorithm), algorithm bytes
//	byte guarantees, byte flags (bit0 sparse, bit1 lf-compromised)
//	uvarint numNodes
//	per node: uvarint switch id, deps as a wirefmt index list
//	          (uvarint count, first absolute, then gaps-1), which
//	          enforces the sorted-unique-ascending invariant
const (
	planMagic   = "TSUP"
	planVersion = 1

	// maxPlanWireNodes bounds decoded plans; update jobs touch at most
	// a path's worth of switches, so anything larger is corrupt input.
	maxPlanWireNodes = 1 << 20
)

// ErrPlanWire marks malformed plan wire bytes; match with errors.Is.
var ErrPlanWire = errors.New("malformed plan wire encoding")

// AppendTo appends the plan's canonical wire encoding to buf and
// returns the extended slice.
func (p *Plan) AppendTo(buf []byte) []byte {
	buf = append(buf, planMagic...)
	buf = append(buf, planVersion)
	buf = wirefmt.AppendBytes(buf, p.Algorithm)
	buf = append(buf, byte(p.Guarantees))
	var flags byte
	if p.Sparse {
		flags |= 1
	}
	if p.LoopFreedomCompromised {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		buf = binary.AppendUvarint(buf, uint64(n.Switch))
		buf = wirefmt.AppendIndices(buf, n.Deps)
	}
	return buf
}

// EncodePlan returns the plan's canonical wire encoding.
func EncodePlan(p *Plan) []byte { return p.AppendTo(nil) }

// DecodePlan parses a canonical plan wire encoding. It rejects — with
// an error wrapping ErrPlanWire, never a panic — trailing bytes, dep
// indices at or above their node, and non-canonical varints, so every
// successful decode re-encodes to the identical bytes.
func DecodePlan(data []byte) (*Plan, error) {
	d := wirefmt.NewDecoder(data, ErrPlanWire)
	if string(d.Take(len(planMagic))) != planMagic {
		return nil, fmt.Errorf("core: bad magic: %w", ErrPlanWire)
	}
	if v := d.Byte(); v != planVersion {
		return nil, fmt.Errorf("core: plan version %d: %w", v, ErrPlanWire)
	}
	p := &Plan{Algorithm: string(d.Bytes(1 << 10))}
	p.Guarantees = Property(d.Byte())
	flags := d.Byte()
	if flags&^3 != 0 {
		return nil, fmt.Errorf("core: unknown plan flags %#x: %w", flags, ErrPlanWire)
	}
	p.Sparse = flags&1 != 0
	p.LoopFreedomCompromised = flags&2 != 0
	numNodes := d.Len(maxPlanWireNodes)
	if numNodes > 0 {
		p.Nodes = make([]PlanNode, 0, min(numNodes, 1<<12))
	}
	for i := 0; i < numNodes && d.Err() == nil; i++ {
		// A node depends only on nodes before it.
		p.Nodes = append(p.Nodes, PlanNode{Switch: topo.NodeID(d.Uvarint()), Deps: d.Indices(nil, i)})
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return p, nil
}
