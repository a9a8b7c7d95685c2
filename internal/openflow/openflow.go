// Package openflow implements the OpenFlow 1.0 wire protocol subset the
// prototype uses: the controller↔switch handshake (HELLO, FEATURES),
// rule installation (FLOW_MOD with OUTPUT and VLAN actions), the
// barrier exchange that delimits update rounds (BARRIER_REQUEST/REPLY),
// liveness (ECHO), error reporting, and VENDOR, which carries package
// planwire's plan pushes, completion reports and state queries.
//
// All encoding is big-endian per the specification, with strict length
// validation on decode: a malformed message yields an error, never a
// partially populated struct. A well-framed message of any other type
// decodes to an Unsupported that keeps its body verbatim, so a peer
// speaking more of the protocol does not end the connection. Messages
// are plain structs; Encode and Decode translate between them and wire
// bytes. Framing over a stream (reading exactly one message) lives in
// package ofconn.
package openflow

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Version is the only protocol version spoken: OpenFlow 1.0 (0x01).
const Version = 0x01

// HeaderLen is the length of the fixed ofp_header.
const HeaderLen = 8

// MaxMessageLen bounds a message's total length (the header's length
// field is 16-bit).
const MaxMessageLen = 1<<16 - 1

// MsgType enumerates the ofp_type values of OpenFlow 1.0.
type MsgType uint8

// OpenFlow 1.0 message types (ofp_type).
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeVendor          MsgType = 4
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypeFlowMod         MsgType = 14
	TypeBarrierRequest  MsgType = 18
	TypeBarrierReply    MsgType = 19
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeVendor:
		return "VENDOR"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	}
	return fmt.Sprintf("TYPE_%d", uint8(t))
}

// Header is the fixed ofp_header preceding every message.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16 // total message length including the header
	Xid     uint32 // transaction id echoed by replies
}

func putHeader(b []byte, t MsgType, length int, xid uint32) {
	b[0] = Version
	b[1] = uint8(t)
	binary.BigEndian.PutUint16(b[2:4], uint16(length))
	binary.BigEndian.PutUint32(b[4:8], xid)
}

// ParseHeader decodes the fixed header and validates version and
// length bounds.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("openflow: header truncated: %d bytes", len(b))
	}
	h := Header{
		Version: b[0],
		Type:    MsgType(b[1]),
		Length:  binary.BigEndian.Uint16(b[2:4]),
		Xid:     binary.BigEndian.Uint32(b[4:8]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("openflow: unsupported version 0x%02x", h.Version)
	}
	if int(h.Length) < HeaderLen {
		return Header{}, fmt.Errorf("openflow: header length %d < %d", h.Length, HeaderLen)
	}
	return h, nil
}

// Message is any OpenFlow message: one of the supported subset, or an
// Unsupported. Xid returns the transaction id; SetXid is provided by all
// implementations via the embedded field, so the connection layer can
// allocate ids uniformly.
type Message interface {
	MsgType() MsgType
	Xid() uint32
	SetXid(uint32)

	// bodyLen returns the encoded body length (total minus header).
	bodyLen() int
	// encodeBody writes the body into b, which has exactly bodyLen()
	// bytes.
	encodeBody(b []byte) error
	// decodeBody parses the body, copying out every byte it keeps.
	decodeBody(b []byte) error
}

// xid provides the Xid accessors every message embeds.
type xid struct {
	ID uint32
}

// Xid returns the message's transaction id.
func (x *xid) Xid() uint32 { return x.ID }

// SetXid sets the message's transaction id.
func (x *xid) SetXid(v uint32) { x.ID = v }

// Encode serialises m into its complete wire form. It allocates a
// fresh buffer per call; the live deployment path (ofconn) uses
// AppendTo with pooled buffers instead.
func Encode(m Message) ([]byte, error) {
	return AppendTo(nil, m)
}

// AppendTo appends m's complete wire form to buf and returns the
// extended slice. When buf has sufficient capacity no allocation
// occurs, so a caller cycling a scratch buffer (buf[:0] between
// messages) encodes with zero allocations in steady state.
func AppendTo(buf []byte, m Message) ([]byte, error) {
	total := HeaderLen + m.bodyLen()
	if total > MaxMessageLen {
		return nil, fmt.Errorf("openflow: %s message of %d bytes exceeds maximum %d", m.MsgType(), total, MaxMessageLen)
	}
	off := len(buf)
	buf = slices.Grow(buf, total)[:off+total]
	clear(buf[off:]) // encoders rely on zeroed padding bytes
	putHeader(buf[off:], m.MsgType(), total, m.Xid())
	if err := m.encodeBody(buf[off+HeaderLen:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Decode parses exactly one complete message. The input must contain
// the entire message and nothing more (framing is the caller's job). A
// type outside the supported subset decodes to an Unsupported.
func Decode(b []byte) (Message, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return nil, err
	}
	if int(h.Length) != len(b) {
		return nil, fmt.Errorf("openflow: header says %d bytes, got %d", h.Length, len(b))
	}
	body := b[HeaderLen:]
	var m Message
	switch h.Type {
	case TypeHello:
		m = &Hello{}
	case TypeError:
		m = &Error{}
	case TypeEchoRequest:
		m = &EchoRequest{}
	case TypeEchoReply:
		m = &EchoReply{}
	case TypeVendor:
		m = &Vendor{}
	case TypeFeaturesRequest:
		m = &FeaturesRequest{}
	case TypeFeaturesReply:
		m = &FeaturesReply{}
	case TypeFlowMod:
		m = &FlowMod{}
	case TypeBarrierRequest:
		m = &BarrierRequest{}
	case TypeBarrierReply:
		m = &BarrierReply{}
	default:
		m = &Unsupported{Type: h.Type}
	}
	if err := m.decodeBody(body); err != nil {
		return nil, fmt.Errorf("openflow: decoding %s: %w", h.Type, err)
	}
	m.SetXid(h.Xid)
	return m, nil
}
