package openflow

import (
	"encoding/binary"
	"fmt"
)

// FlowModCommand enumerates ofp_flow_mod_command.
type FlowModCommand uint16

// Flow-mod commands.
const (
	FlowAdd          FlowModCommand = 0
	FlowModify       FlowModCommand = 1
	FlowModifyStrict FlowModCommand = 2
	FlowDelete       FlowModCommand = 3
	FlowDeleteStrict FlowModCommand = 4
)

func (c FlowModCommand) String() string {
	switch c {
	case FlowAdd:
		return "ADD"
	case FlowModify:
		return "MODIFY"
	case FlowModifyStrict:
		return "MODIFY_STRICT"
	case FlowDelete:
		return "DELETE"
	case FlowDeleteStrict:
		return "DELETE_STRICT"
	}
	return fmt.Sprintf("COMMAND_%d", uint16(c))
}

// NoBuffer is the buffer_id meaning "not buffered" (OFP_NO_BUFFER).
const NoBuffer uint32 = 0xffffffff

// FlowMod flags (ofp_flow_mod_flags).
const (
	FlagSendFlowRem  uint16 = 1 << 0
	FlagCheckOverlap uint16 = 1 << 1
)

// FlowMod installs, modifies or removes a flow-table entry — the
// update command whose asynchronous delivery the whole scheduling
// machinery exists to tame.
type FlowMod struct {
	xid
	Match       Match
	Cookie      uint64
	Command     FlowModCommand
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action
}

const flowModFixed = MatchLen + 24

// MsgType returns TypeFlowMod.
func (*FlowMod) MsgType() MsgType { return TypeFlowMod }
func (m *FlowMod) bodyLen() int   { return flowModFixed + actionsWireLen(m.Actions) }
func (m *FlowMod) encodeBody(b []byte) error {
	m.Match.encode(b[0:MatchLen])
	off := MatchLen
	binary.BigEndian.PutUint64(b[off:off+8], m.Cookie)
	binary.BigEndian.PutUint16(b[off+8:off+10], uint16(m.Command))
	binary.BigEndian.PutUint16(b[off+10:off+12], m.IdleTimeout)
	binary.BigEndian.PutUint16(b[off+12:off+14], m.HardTimeout)
	binary.BigEndian.PutUint16(b[off+14:off+16], m.Priority)
	binary.BigEndian.PutUint32(b[off+16:off+20], m.BufferID)
	binary.BigEndian.PutUint16(b[off+20:off+22], m.OutPort)
	binary.BigEndian.PutUint16(b[off+22:off+24], m.Flags)
	encodeActions(b[flowModFixed:], m.Actions)
	return nil
}
func (m *FlowMod) decodeBody(b []byte) error {
	if len(b) < flowModFixed {
		return fmt.Errorf("flow mod body %d bytes, want >= %d", len(b), flowModFixed)
	}
	if err := m.Match.DecodeWire(b[0:MatchLen]); err != nil {
		return err
	}
	off := MatchLen
	m.Cookie = binary.BigEndian.Uint64(b[off : off+8])
	m.Command = FlowModCommand(binary.BigEndian.Uint16(b[off+8 : off+10]))
	m.IdleTimeout = binary.BigEndian.Uint16(b[off+10 : off+12])
	m.HardTimeout = binary.BigEndian.Uint16(b[off+12 : off+14])
	m.Priority = binary.BigEndian.Uint16(b[off+14 : off+16])
	m.BufferID = binary.BigEndian.Uint32(b[off+16 : off+20])
	m.OutPort = binary.BigEndian.Uint16(b[off+20 : off+22])
	m.Flags = binary.BigEndian.Uint16(b[off+22 : off+24])
	actions, err := decodeActions(b[flowModFixed:])
	if err != nil {
		return err
	}
	m.Actions = actions
	return nil
}
