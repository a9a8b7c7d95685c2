package openflow

import (
	"encoding/binary"
	"fmt"
)

// ActionType enumerates ofp_action_type values of the supported subset.
type ActionType uint16

// Supported action types.
const (
	ActionTypeOutput    ActionType = 0
	ActionTypeSetVLAN   ActionType = 1 // OFPAT_SET_VLAN_VID
	ActionTypeStripVLAN ActionType = 3 // OFPAT_STRIP_VLAN
)

// Port numbers with reserved meaning (ofp_port).
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// Action is a flow-entry action of the supported subset.
type Action interface {
	ActionType() ActionType
	// wireLen is the encoded action length (a multiple of 8).
	wireLen() int
	encode(b []byte)
}

// ActionOutput forwards matching packets to a port
// (ofp_action_output).
type ActionOutput struct {
	Port   uint16
	MaxLen uint16 // bytes to send to the controller when Port is PortController
}

const actionOutputLen = 8

// ActionType returns ActionTypeOutput.
func (a ActionOutput) ActionType() ActionType { return ActionTypeOutput }

func (a ActionOutput) wireLen() int { return actionOutputLen }

func (a ActionOutput) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeOutput))
	binary.BigEndian.PutUint16(b[2:4], actionOutputLen)
	binary.BigEndian.PutUint16(b[4:6], a.Port)
	binary.BigEndian.PutUint16(b[6:8], a.MaxLen)
}

// ActionSetVLAN rewrites the packet's VLAN id
// (ofp_action_vlan_vid) — the tagging primitive of two-phase-commit
// updates.
type ActionSetVLAN struct {
	VLAN uint16
}

const actionSetVLANLen = 8

// ActionType returns ActionTypeSetVLAN.
func (a ActionSetVLAN) ActionType() ActionType { return ActionTypeSetVLAN }

func (a ActionSetVLAN) wireLen() int { return actionSetVLANLen }

func (a ActionSetVLAN) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeSetVLAN))
	binary.BigEndian.PutUint16(b[2:4], actionSetVLANLen)
	binary.BigEndian.PutUint16(b[4:6], a.VLAN)
	b[6], b[7] = 0, 0 // pad
}

// ActionStripVLAN removes the packet's VLAN tag (ofp_action_header
// with no body).
type ActionStripVLAN struct{}

const actionStripVLANLen = 8

// ActionType returns ActionTypeStripVLAN.
func (ActionStripVLAN) ActionType() ActionType { return ActionTypeStripVLAN }

func (ActionStripVLAN) wireLen() int { return actionStripVLANLen }

func (ActionStripVLAN) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(ActionTypeStripVLAN))
	binary.BigEndian.PutUint16(b[2:4], actionStripVLANLen)
	b[4], b[5], b[6], b[7] = 0, 0, 0, 0 // pad
}

// ApplyActions executes an action list against the packet in order and
// returns the first OUTPUT port reached (packet-field rewrites before
// it take effect, as in OpenFlow 1.0 action-list semantics).
func ApplyActions(actions []Action, pkt *PacketKey) (uint16, bool) {
	for _, a := range actions {
		switch act := a.(type) {
		case ActionSetVLAN:
			pkt.VLAN = act.VLAN
		case ActionStripVLAN:
			pkt.VLAN = VLANNone
		case ActionOutput:
			return act.Port, true
		}
	}
	return 0, false
}

func actionsWireLen(actions []Action) int {
	total := 0
	for _, a := range actions {
		total += a.wireLen()
	}
	return total
}

func encodeActions(b []byte, actions []Action) {
	off := 0
	for _, a := range actions {
		a.encode(b[off:])
		off += a.wireLen()
	}
}

// decodeActions parses a packed action list occupying exactly b.
func decodeActions(b []byte) ([]Action, error) {
	var out []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("action header truncated: %d bytes", len(b))
		}
		t := ActionType(binary.BigEndian.Uint16(b[0:2]))
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if l < 8 || l%8 != 0 {
			return nil, fmt.Errorf("action length %d invalid (must be a positive multiple of 8)", l)
		}
		if l > len(b) {
			return nil, fmt.Errorf("action of %d bytes overruns %d remaining", l, len(b))
		}
		switch t {
		case ActionTypeOutput:
			if l != actionOutputLen {
				return nil, fmt.Errorf("output action length %d, want %d", l, actionOutputLen)
			}
			out = append(out, ActionOutput{
				Port:   binary.BigEndian.Uint16(b[4:6]),
				MaxLen: binary.BigEndian.Uint16(b[6:8]),
			})
		case ActionTypeSetVLAN:
			if l != actionSetVLANLen {
				return nil, fmt.Errorf("set-vlan action length %d, want %d", l, actionSetVLANLen)
			}
			out = append(out, ActionSetVLAN{VLAN: binary.BigEndian.Uint16(b[4:6])})
		case ActionTypeStripVLAN:
			if l != actionStripVLANLen {
				return nil, fmt.Errorf("strip-vlan action length %d, want %d", l, actionStripVLANLen)
			}
			out = append(out, ActionStripVLAN{})
		default:
			return nil, fmt.Errorf("unsupported action type %d", t)
		}
		b = b[l:]
	}
	return out, nil
}
