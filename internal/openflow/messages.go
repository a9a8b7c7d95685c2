package openflow

import (
	"encoding/binary"
	"fmt"
)

// Hello opens the connection; both sides send it first. OpenFlow 1.0
// peers may append hello elements; they are preserved verbatim so a
// decoded hello re-encodes to its exact wire form (this subset never
// interprets them).
type Hello struct {
	xid
	Elements []byte
}

// MsgType returns TypeHello.
func (*Hello) MsgType() MsgType { return TypeHello }
func (h *Hello) bodyLen() int   { return len(h.Elements) }
func (h *Hello) encodeBody(b []byte) error {
	copy(b, h.Elements)
	return nil
}
func (h *Hello) decodeBody(b []byte) error {
	if len(b) > 0 {
		h.Elements = append([]byte(nil), b...)
	}
	return nil
}

// EchoRequest is the liveness probe; the peer echoes Data back.
type EchoRequest struct {
	xid
	Data []byte
}

// MsgType returns TypeEchoRequest.
func (*EchoRequest) MsgType() MsgType { return TypeEchoRequest }
func (m *EchoRequest) bodyLen() int   { return len(m.Data) }
func (m *EchoRequest) encodeBody(b []byte) error {
	copy(b, m.Data)
	return nil
}
func (m *EchoRequest) decodeBody(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

// EchoReply answers an EchoRequest with the same Data and Xid.
type EchoReply struct {
	xid
	Data []byte
}

// MsgType returns TypeEchoReply.
func (*EchoReply) MsgType() MsgType { return TypeEchoReply }
func (m *EchoReply) bodyLen() int   { return len(m.Data) }
func (m *EchoReply) encodeBody(b []byte) error {
	copy(b, m.Data)
	return nil
}
func (m *EchoReply) decodeBody(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

// Vendor is the OpenFlow 1.0 experimenter escape hatch
// (ofp_vendor_header): a 32-bit vendor id followed by opaque data the peer
// interprets. The prototype uses it to carry decentralized-execution
// control messages (plan pushes down, completion reports up); see
// package planwire for the payload codecs.
type Vendor struct {
	xid
	Vendor uint32
	Data   []byte
}

// MsgType returns TypeVendor.
func (*Vendor) MsgType() MsgType { return TypeVendor }
func (m *Vendor) bodyLen() int   { return 4 + len(m.Data) }
func (m *Vendor) encodeBody(b []byte) error {
	binary.BigEndian.PutUint32(b[0:4], m.Vendor)
	copy(b[4:], m.Data)
	return nil
}
func (m *Vendor) decodeBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("vendor body %d bytes, want >= 4", len(b))
	}
	m.Vendor = binary.BigEndian.Uint32(b[0:4])
	if len(b) > 4 {
		m.Data = append([]byte(nil), b[4:]...)
	}
	return nil
}

// FeaturesRequest asks a switch for its datapath identity and
// capabilities.
type FeaturesRequest struct {
	xid
}

// MsgType returns TypeFeaturesRequest.
func (*FeaturesRequest) MsgType() MsgType        { return TypeFeaturesRequest }
func (*FeaturesRequest) bodyLen() int            { return 0 }
func (*FeaturesRequest) encodeBody([]byte) error { return nil }
func (*FeaturesRequest) decodeBody(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("features request carries %d unexpected body bytes", len(b))
	}
	return nil
}

// PhyPort describes one switch port (ofp_phy_port).
type PhyPort struct {
	PortNo     uint16
	HWAddr     [6]byte
	Name       string // at most 15 bytes on the wire (NUL-terminated)
	Config     uint32
	State      uint32
	Curr       uint32
	Advertised uint32
	Supported  uint32
	Peer       uint32
}

const phyPortLen = 48

func (p *PhyPort) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], p.PortNo)
	copy(b[2:8], p.HWAddr[:])
	name := p.Name
	if len(name) > 15 {
		name = name[:15]
	}
	copy(b[8:24], name) // remainder stays zero (NUL padding)
	binary.BigEndian.PutUint32(b[24:28], p.Config)
	binary.BigEndian.PutUint32(b[28:32], p.State)
	binary.BigEndian.PutUint32(b[32:36], p.Curr)
	binary.BigEndian.PutUint32(b[36:40], p.Advertised)
	binary.BigEndian.PutUint32(b[40:44], p.Supported)
	binary.BigEndian.PutUint32(b[44:48], p.Peer)
}

func (p *PhyPort) decode(b []byte) {
	p.PortNo = binary.BigEndian.Uint16(b[0:2])
	copy(p.HWAddr[:], b[2:8])
	name := b[8:24]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	p.Name = string(name[:end])
	p.Config = binary.BigEndian.Uint32(b[24:28])
	p.State = binary.BigEndian.Uint32(b[28:32])
	p.Curr = binary.BigEndian.Uint32(b[32:36])
	p.Advertised = binary.BigEndian.Uint32(b[36:40])
	p.Supported = binary.BigEndian.Uint32(b[40:44])
	p.Peer = binary.BigEndian.Uint32(b[44:48])
}

// FeaturesReply identifies the switch: its datapath ID is how the
// controller and the paper's REST schema name switches.
type FeaturesReply struct {
	xid
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PhyPort
}

const featuresReplyFixed = 24

// MsgType returns TypeFeaturesReply.
func (*FeaturesReply) MsgType() MsgType { return TypeFeaturesReply }
func (m *FeaturesReply) bodyLen() int   { return featuresReplyFixed + len(m.Ports)*phyPortLen }
func (m *FeaturesReply) encodeBody(b []byte) error {
	binary.BigEndian.PutUint64(b[0:8], m.DatapathID)
	binary.BigEndian.PutUint32(b[8:12], m.NBuffers)
	b[12] = m.NTables
	b[13], b[14], b[15] = 0, 0, 0 // pad
	binary.BigEndian.PutUint32(b[16:20], m.Capabilities)
	binary.BigEndian.PutUint32(b[20:24], m.Actions)
	off := featuresReplyFixed
	for i := range m.Ports {
		m.Ports[i].encode(b[off:])
		off += phyPortLen
	}
	return nil
}
func (m *FeaturesReply) decodeBody(b []byte) error {
	if len(b) < featuresReplyFixed {
		return fmt.Errorf("features reply body %d bytes, want >= %d", len(b), featuresReplyFixed)
	}
	if (len(b)-featuresReplyFixed)%phyPortLen != 0 {
		return fmt.Errorf("features reply ports area %d bytes, not a multiple of %d", len(b)-featuresReplyFixed, phyPortLen)
	}
	m.DatapathID = binary.BigEndian.Uint64(b[0:8])
	m.NBuffers = binary.BigEndian.Uint32(b[8:12])
	m.NTables = b[12]
	m.Capabilities = binary.BigEndian.Uint32(b[16:20])
	m.Actions = binary.BigEndian.Uint32(b[20:24])
	m.Ports = nil
	for off := featuresReplyFixed; off < len(b); off += phyPortLen {
		var p PhyPort
		p.decode(b[off:])
		m.Ports = append(m.Ports, p)
	}
	return nil
}

// BarrierRequest asks the switch to finish processing every preceding
// message before replying — the paper's round delimiter.
type BarrierRequest struct {
	xid
}

// MsgType returns TypeBarrierRequest.
func (*BarrierRequest) MsgType() MsgType        { return TypeBarrierRequest }
func (*BarrierRequest) bodyLen() int            { return 0 }
func (*BarrierRequest) encodeBody([]byte) error { return nil }
func (*BarrierRequest) decodeBody(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("barrier request carries %d unexpected body bytes", len(b))
	}
	return nil
}

// BarrierReply acknowledges a BarrierRequest with the same Xid.
type BarrierReply struct {
	xid
}

// MsgType returns TypeBarrierReply.
func (*BarrierReply) MsgType() MsgType        { return TypeBarrierReply }
func (*BarrierReply) bodyLen() int            { return 0 }
func (*BarrierReply) encodeBody([]byte) error { return nil }
func (*BarrierReply) decodeBody(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("barrier reply carries %d unexpected body bytes", len(b))
	}
	return nil
}

// Error type/code pairs of the supported subset (ofp_error_type).
const (
	ErrTypeBadRequest  uint16 = 1
	ErrTypeBadAction   uint16 = 2
	ErrTypeFlowModFail uint16 = 3

	ErrCodeBadType       uint16 = 1
	ErrCodeBadLen        uint16 = 2
	ErrCodeAllTablesFull uint16 = 0
	ErrCodeUnsupported   uint16 = 5 // OFPFMFC_UNSUPPORTED: a FlowMod flag or timeout the switch lacks
)

// Error reports a failure back to the message's sender; Data carries at
// least the first 64 bytes of the offending message per the spec.
type Error struct {
	xid
	ErrType uint16
	Code    uint16
	Data    []byte
}

// MsgType returns TypeError.
func (*Error) MsgType() MsgType { return TypeError }
func (m *Error) bodyLen() int   { return 4 + len(m.Data) }
func (m *Error) encodeBody(b []byte) error {
	binary.BigEndian.PutUint16(b[0:2], m.ErrType)
	binary.BigEndian.PutUint16(b[2:4], m.Code)
	copy(b[4:], m.Data)
	return nil
}
func (m *Error) decodeBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("error body %d bytes, want >= 4", len(b))
	}
	m.ErrType = binary.BigEndian.Uint16(b[0:2])
	m.Code = binary.BigEndian.Uint16(b[2:4])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

func (m *Error) Error() string {
	return fmt.Sprintf("openflow error type=%d code=%d", m.ErrType, m.Code)
}

// Unsupported is a well-framed message of a type outside the supported
// subset (PACKET_IN, SET_CONFIG, STATS_REQUEST, ...). Its body is kept
// verbatim, so it re-encodes byte-identically. A switch answers one
// with BAD_REQUEST/BAD_TYPE; the controller logs it and reads on.
type Unsupported struct {
	xid
	Type MsgType
	Body []byte
}

// MsgType returns the message's wire type.
func (m *Unsupported) MsgType() MsgType { return m.Type }
func (m *Unsupported) bodyLen() int     { return len(m.Body) }
func (m *Unsupported) encodeBody(b []byte) error {
	copy(b, m.Body)
	return nil
}
func (m *Unsupported) decodeBody(b []byte) error {
	m.Body = append([]byte(nil), b...)
	return nil
}
