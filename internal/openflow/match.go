package openflow

import (
	"encoding/binary"
	"fmt"
	"net"
)

// MatchLen is the wire size of ofp_match in OpenFlow 1.0.
const MatchLen = 40

// Wildcard flags of ofp_match (OFPFW_*).
const (
	WildcardInPort     uint32 = 1 << 0
	WildcardDLVLAN     uint32 = 1 << 1
	WildcardDLSrc      uint32 = 1 << 2
	WildcardDLDst      uint32 = 1 << 3
	WildcardDLType     uint32 = 1 << 4
	WildcardNWProto    uint32 = 1 << 5
	WildcardTPSrc      uint32 = 1 << 6
	WildcardTPDst      uint32 = 1 << 7
	WildcardNWSrcShift        = 8
	WildcardNWDstShift        = 14
	// WildcardNWSrcMask / WildcardNWDstMask cover the entire 6-bit
	// prefix-wildcard fields; any value >= 32 in the field wildcards
	// the whole address.
	WildcardNWSrcMask uint32 = 0x3f << WildcardNWSrcShift
	WildcardNWDstMask uint32 = 0x3f << WildcardNWDstShift
	WildcardNWSrcAll  uint32 = 32 << WildcardNWSrcShift
	WildcardNWDstAll  uint32 = 32 << WildcardNWDstShift
	WildcardDLVLANPCP uint32 = 1 << 20
	WildcardNWTOS     uint32 = 1 << 21
	// WildcardAll matches every packet.
	WildcardAll uint32 = (1 << 22) - 1
)

// Match is the OpenFlow 1.0 ofp_match: the 12-tuple flows are
// classified on. The prototype identifies a policy's flow by the
// destination IPv4 address (hosts h1→h2 traffic), wildcarding the
// remaining fields.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     [6]byte
	DLDst     [6]byte
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTOS     uint8
	NWProto   uint8
	NWSrc     uint32
	NWDst     uint32
	TPSrc     uint16
	TPDst     uint16
}

// ExactNWDst returns a match on destination IPv4 address only — the
// flow key used for the demo policies (EtherType IPv4 is set so the
// match is well-formed).
func ExactNWDst(ip net.IP) Match {
	v4 := ip.To4()
	var nwDst uint32
	if v4 != nil {
		nwDst = binary.BigEndian.Uint32(v4)
	}
	return Match{
		// Everything wildcarded except dl_type and the full nw_dst
		// (prefix-wildcard field zeroed = exact 32-bit match).
		Wildcards: WildcardAll &^ WildcardNWDstMask &^ WildcardDLType,
		DLType:    0x0800,
		NWDst:     nwDst,
	}
}

// NWDstIP returns the match's destination address as a net.IP.
func (m *Match) NWDstIP() net.IP {
	ip := make(net.IP, 4)
	binary.BigEndian.PutUint32(ip, m.NWDst)
	return ip
}

// VLANNone is the dl_vlan value meaning "packet carries no VLAN tag"
// (OFP_VLAN_NONE).
const VLANNone uint16 = 0xffff

// PacketKey carries the packet fields this subset classifies on: the
// IPv4 destination and the VLAN id (VLANNone when untagged). The
// tagging-based two-phase update mechanism distinguishes policy
// versions by VLAN.
type PacketKey struct {
	NWDst uint32
	VLAN  uint16
}

// UntaggedPacket builds the key of an untagged packet to nwDst.
func UntaggedPacket(nwDst uint32) PacketKey {
	return PacketKey{NWDst: nwDst, VLAN: VLANNone}
}

// CoversKey reports whether the match accepts the packet under this
// subset's semantics: the nw_dst prefix wildcard and the dl_vlan field
// are consulted; the remaining fields are assumed wildcarded by the
// prototype's rules.
func (m *Match) CoversKey(k PacketKey) bool {
	if m.Wildcards&WildcardDLVLAN == 0 && m.DLVLAN != k.VLAN {
		return false
	}
	prefixWild := (m.Wildcards >> WildcardNWDstShift) & 0x3f
	if prefixWild >= 32 {
		return true
	}
	maskBits := 32 - prefixWild
	mask := uint32(0xffffffff) << (32 - maskBits)
	return m.NWDst&mask == k.NWDst&mask
}

// AppendWire appends the match's ofp_match wire form, MatchLen bytes,
// to b.
func (m *Match) AppendWire(b []byte) []byte {
	b = append(b, make([]byte, MatchLen)...)
	m.encode(b[len(b)-MatchLen:])
	return b
}

func (m *Match) encode(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	copy(b[6:12], m.DLSrc[:])
	copy(b[12:18], m.DLDst[:])
	binary.BigEndian.PutUint16(b[18:20], m.DLVLAN)
	b[20] = m.DLVLANPCP
	b[21] = 0 // pad
	binary.BigEndian.PutUint16(b[22:24], m.DLType)
	b[24] = m.NWTOS
	b[25] = m.NWProto
	b[26], b[27] = 0, 0 // pad
	binary.BigEndian.PutUint32(b[28:32], m.NWSrc)
	binary.BigEndian.PutUint32(b[32:36], m.NWDst)
	binary.BigEndian.PutUint16(b[36:38], m.TPSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TPDst)
}

// DecodeWire reads the match from its ofp_match wire form, the first
// MatchLen bytes of b.
func (m *Match) DecodeWire(b []byte) error {
	if len(b) < MatchLen {
		return fmt.Errorf("match truncated: %d bytes", len(b))
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	m.DLType = binary.BigEndian.Uint16(b[22:24])
	m.NWTOS = b[24]
	m.NWProto = b[25]
	m.NWSrc = binary.BigEndian.Uint32(b[28:32])
	m.NWDst = binary.BigEndian.Uint32(b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return nil
}
