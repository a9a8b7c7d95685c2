package openflow

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	wire, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %s: %v", m.MsgType(), err)
	}
	if len(wire) < HeaderLen {
		t.Fatalf("wire too short: %d", len(wire))
	}
	if got := binary.BigEndian.Uint16(wire[2:4]); int(got) != len(wire) {
		t.Fatalf("header length %d != wire length %d", got, len(wire))
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode %s: %v", m.MsgType(), err)
	}
	return back
}

func TestHelloGoldenBytes(t *testing.T) {
	h := &Hello{}
	h.SetXid(0x01020304)
	wire, err := Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0x00, 0x00, 0x08, 0x01, 0x02, 0x03, 0x04}
	if !bytes.Equal(wire, want) {
		t.Fatalf("hello wire = % x, want % x", wire, want)
	}
}

func TestBarrierGoldenBytes(t *testing.T) {
	br := &BarrierRequest{}
	br.SetXid(7)
	wire, err := Encode(br)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0x12, 0x00, 0x08, 0x00, 0x00, 0x00, 0x07} // type 18
	if !bytes.Equal(wire, want) {
		t.Fatalf("barrier wire = % x, want % x", wire, want)
	}
	bp := &BarrierReply{}
	bp.SetXid(7)
	wire, err = Encode(bp)
	if err != nil {
		t.Fatal(err)
	}
	if wire[1] != 0x13 { // type 19
		t.Fatalf("barrier reply type byte = %#x", wire[1])
	}
}

func TestFlowModGoldenLayout(t *testing.T) {
	fm := &FlowMod{
		Match:    ExactNWDst(net.IPv4(10, 0, 0, 2)),
		Cookie:   0xdeadbeefcafef00d,
		Command:  FlowAdd,
		Priority: 100,
		BufferID: NoBuffer,
		OutPort:  PortNone,
		Actions:  []Action{ActionOutput{Port: 3, MaxLen: 0}},
	}
	fm.SetXid(42)
	wire, err := Encode(fm)
	if err != nil {
		t.Fatal(err)
	}
	// Total: 8 header + 40 match + 24 fixed + 8 action = 80.
	if len(wire) != 80 {
		t.Fatalf("flow mod wire length = %d, want 80", len(wire))
	}
	if wire[1] != 0x0e {
		t.Fatalf("type byte = %#x, want 0x0e", wire[1])
	}
	// Cookie at offset 8+40.
	if got := binary.BigEndian.Uint64(wire[48:56]); got != fm.Cookie {
		t.Fatalf("cookie on wire = %#x", got)
	}
	// nw_dst inside the match at offset 8+32.
	if got := binary.BigEndian.Uint32(wire[40:44]); got != binary.BigEndian.Uint32(net.IPv4(10, 0, 0, 2).To4()) {
		t.Fatalf("nw_dst on wire = %#x", got)
	}
	// Action output port at offset 80-8+4 = 76.
	if got := binary.BigEndian.Uint16(wire[76:78]); got != 3 {
		t.Fatalf("action port on wire = %d", got)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Match:       ExactNWDst(net.IPv4(10, 0, 0, 9)),
		Cookie:      12345,
		Command:     FlowModify,
		IdleTimeout: 30,
		HardTimeout: 60,
		Priority:    0x8000,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Flags:       FlagSendFlowRem,
		Actions:     []Action{ActionOutput{Port: 7, MaxLen: 128}},
	}
	fm.SetXid(99)
	back := roundTrip(t, fm).(*FlowMod)
	if !reflect.DeepEqual(fm, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", fm, back)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	req := &EchoRequest{Data: []byte("ping-1234")}
	req.SetXid(5)
	back := roundTrip(t, req).(*EchoRequest)
	if !bytes.Equal(back.Data, req.Data) || back.Xid() != 5 {
		t.Fatalf("echo round trip: %+v", back)
	}
	rep := &EchoReply{Data: nil}
	rep.SetXid(6)
	back2 := roundTrip(t, rep).(*EchoReply)
	if len(back2.Data) != 0 {
		t.Fatalf("echo reply data = %v", back2.Data)
	}
}

func TestVendorRoundTrip(t *testing.T) {
	v := &Vendor{Vendor: 0x00545355, Data: []byte("partition-bytes")}
	v.SetXid(9)
	back := roundTrip(t, v).(*Vendor)
	if back.Vendor != v.Vendor || !bytes.Equal(back.Data, v.Data) || back.Xid() != 9 {
		t.Fatalf("vendor round trip: %+v", back)
	}
	// Empty data is legal; a body shorter than the vendor id is not.
	empty := &Vendor{Vendor: 1}
	if got := roundTrip(t, empty).(*Vendor); got.Vendor != 1 || len(got.Data) != 0 {
		t.Fatalf("empty vendor round trip: %+v", got)
	}
	short := []byte{Version, byte(TypeVendor), 0, HeaderLen + 2, 0, 0, 0, 1, 0xAA, 0xBB}
	if _, err := Decode(short); err == nil {
		t.Fatal("vendor body shorter than the vendor id decoded without error")
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	fr := &FeaturesReply{
		DatapathID:   0x0000000000000003,
		NBuffers:     256,
		NTables:      1,
		Capabilities: 0xc7,
		Actions:      0xfff,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: [6]byte{0, 1, 2, 3, 4, 5}, Name: "eth1", Curr: 0x840},
			{PortNo: 2, HWAddr: [6]byte{0, 1, 2, 3, 4, 6}, Name: "eth2"},
		},
	}
	fr.SetXid(11)
	back := roundTrip(t, fr).(*FeaturesReply)
	if !reflect.DeepEqual(fr, back) {
		t.Fatalf("features round trip mismatch:\n%+v\n%+v", fr, back)
	}
	freq := &FeaturesRequest{}
	freq.SetXid(12)
	if got := roundTrip(t, freq); got.Xid() != 12 {
		t.Fatalf("features request xid = %d", got.Xid())
	}
}

func TestPhyPortNameTruncation(t *testing.T) {
	p := PhyPort{PortNo: 1, Name: "a-very-long-interface-name"}
	var b [phyPortLen]byte
	p.encode(b[:])
	var back PhyPort
	back.decode(b[:])
	if len(back.Name) > 15 {
		t.Fatalf("name %q exceeds 15 bytes", back.Name)
	}
	if back.Name != "a-very-long-int" {
		t.Fatalf("name = %q", back.Name)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{ErrType: ErrTypeFlowModFail, Code: ErrCodeAllTablesFull, Data: []byte{1, 2, 3}}
	e.SetXid(77)
	back := roundTrip(t, e).(*Error)
	if !reflect.DeepEqual(e, back) {
		t.Fatalf("error round trip mismatch: %+v vs %+v", e, back)
	}
	if back.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	fm := &FlowMod{Match: ExactNWDst(net.IPv4(10, 0, 0, 1)), BufferID: NoBuffer, OutPort: PortNone}
	good, err := Encode(fm)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short-header":     good[:4],
		"bad-version":      append([]byte{0x09}, good[1:]...),
		"length-lt-header": {0x01, 0x00, 0x00, 0x04, 0, 0, 0, 0},
		"length-mismatch":  good[:len(good)-8],
		"flowmod-truncated": func() []byte {
			b := make([]byte, 40)
			putHeader(b, TypeFlowMod, 40, 1)
			return b
		}(),
		"featreq-with-body": func() []byte {
			b := make([]byte, 12)
			putHeader(b, TypeFeaturesRequest, 12, 1)
			return b
		}(),
		"barrier-with-body": func() []byte {
			b := make([]byte, 10)
			putHeader(b, TypeBarrierRequest, 10, 1)
			return b
		}(),
	}
	for name, wire := range cases {
		if _, err := Decode(wire); err == nil {
			t.Fatalf("%s: malformed message accepted", name)
		}
	}
}

func TestDecodeRejectsBadActions(t *testing.T) {
	fm := &FlowMod{Match: ExactNWDst(net.IPv4(10, 0, 0, 1)), Actions: []Action{ActionOutput{Port: 1}}}
	good, err := Encode(fm)
	if err != nil {
		t.Fatal(err)
	}
	actOff := HeaderLen + flowModFixed

	badType := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(badType[actOff:actOff+2], 0x7777)
	if _, err := Decode(badType); err == nil {
		t.Fatal("unknown action type accepted")
	}

	badLen := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(badLen[actOff+2:actOff+4], 12) // not multiple of 8
	if _, err := Decode(badLen); err == nil {
		t.Fatal("bad action length accepted")
	}

	overrun := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(overrun[actOff+2:actOff+4], 64)
	if _, err := Decode(overrun); err == nil {
		t.Fatal("overrunning action accepted")
	}
}

func TestMatchCovers(t *testing.T) {
	m := ExactNWDst(net.IPv4(10, 0, 0, 2))
	dst := binary.BigEndian.Uint32(net.IPv4(10, 0, 0, 2).To4())
	other := binary.BigEndian.Uint32(net.IPv4(10, 0, 0, 3).To4())
	if !m.CoversKey(UntaggedPacket(dst)) {
		t.Fatal("exact match misses its own address")
	}
	if m.CoversKey(UntaggedPacket(other)) {
		t.Fatal("exact match covers a different address")
	}
	all := Match{Wildcards: WildcardAll}
	if !all.CoversKey(UntaggedPacket(dst)) || !all.CoversKey(UntaggedPacket(other)) {
		t.Fatal("wildcard-all match must cover everything")
	}
	if got := m.NWDstIP().String(); got != "10.0.0.2" {
		t.Fatalf("NWDstIP = %s", got)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" || TypeBarrierReply.String() != "BARRIER_REPLY" {
		t.Fatal("MsgType strings wrong")
	}
	if MsgType(99).String() != "TYPE_99" {
		t.Fatalf("unknown type string = %q", MsgType(99).String())
	}
	if FlowDeleteStrict.String() != "DELETE_STRICT" || FlowModCommand(9).String() != "COMMAND_9" {
		t.Fatal("command strings wrong")
	}
}

// TestQuickMatchRoundTrip property-tests the 40-byte match codec.
func TestQuickMatchRoundTrip(t *testing.T) {
	f := func(wc uint32, inPort uint16, src, dst [6]byte, vlan uint16, pcp uint8,
		dlType uint16, tos, proto uint8, nwSrc, nwDst uint32, tpSrc, tpDst uint16) bool {
		m := Match{
			Wildcards: wc, InPort: inPort, DLSrc: src, DLDst: dst,
			DLVLAN: vlan, DLVLANPCP: pcp, DLType: dlType, NWTOS: tos,
			NWProto: proto, NWSrc: nwSrc, NWDst: nwDst, TPSrc: tpSrc, TPDst: tpDst,
		}
		var b [MatchLen]byte
		m.encode(b[:])
		var back Match
		if err := back.DecodeWire(b[:]); err != nil {
			return false
		}
		return back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFlowModRoundTrip property-tests the full FlowMod codec.
func TestQuickFlowModRoundTrip(t *testing.T) {
	f := func(xid uint32, cookie uint64, cmd uint8, idle, hard, prio uint16,
		buf uint32, outPort, flags uint16, nwDst uint32, ports []uint16) bool {
		fm := &FlowMod{
			Match:       Match{Wildcards: WildcardAll &^ WildcardNWDstAll, NWDst: nwDst},
			Cookie:      cookie,
			Command:     FlowModCommand(cmd % 5),
			IdleTimeout: idle,
			HardTimeout: hard,
			Priority:    prio,
			BufferID:    buf,
			OutPort:     outPort,
			Flags:       flags,
		}
		if len(ports) > 32 {
			ports = ports[:32]
		}
		for _, p := range ports {
			fm.Actions = append(fm.Actions, ActionOutput{Port: p})
		}
		fm.SetXid(xid)
		wire, err := Encode(fm)
		if err != nil {
			return false
		}
		back, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(fm, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNeverPanics fuzzes the decoder with random bytes under
// a valid header envelope: errors are fine, panics are not.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(msgType uint8, xid uint32, body []byte) bool {
		if len(body) > 2048 {
			body = body[:2048]
		}
		wire := make([]byte, HeaderLen+len(body))
		putHeader(wire, MsgType(msgType%24), len(wire), xid)
		copy(wire[HeaderLen:], body)
		_, _ = Decode(wire) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVLANActionsRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Match:    taggedMatch(net.IPv4(10, 0, 0, 2), 2016),
		Command:  FlowAdd,
		Priority: 110,
		BufferID: NoBuffer,
		OutPort:  PortNone,
		Actions: []Action{
			ActionSetVLAN{VLAN: 2016},
			ActionStripVLAN{},
			ActionOutput{Port: 4},
		},
	}
	fm.SetXid(5)
	back := roundTrip(t, fm).(*FlowMod)
	if !reflect.DeepEqual(fm, back) {
		t.Fatalf("vlan actions round trip:\n%+v\n%+v", fm, back)
	}
}

func TestVLANActionGoldenBytes(t *testing.T) {
	var b [8]byte
	ActionSetVLAN{VLAN: 0x0102}.encode(b[:])
	want := []byte{0x00, 0x01, 0x00, 0x08, 0x01, 0x02, 0x00, 0x00}
	if !bytes.Equal(b[:], want) {
		t.Fatalf("set-vlan wire = % x, want % x", b, want)
	}
	ActionStripVLAN{}.encode(b[:])
	want = []byte{0x00, 0x03, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00}
	if !bytes.Equal(b[:], want) {
		t.Fatalf("strip-vlan wire = % x, want % x", b, want)
	}
}

func TestCoversKeyVLANSemantics(t *testing.T) {
	dst := binary.BigEndian.Uint32(net.IPv4(10, 0, 0, 2).To4())
	untaggedRule := ExactNWDst(net.IPv4(10, 0, 0, 2))
	taggedRule := taggedMatch(net.IPv4(10, 0, 0, 2), 7)

	// The untagged rule wildcards dl_vlan: matches tagged and untagged.
	if !untaggedRule.CoversKey(UntaggedPacket(dst)) {
		t.Fatal("untagged rule misses untagged packet")
	}
	if !untaggedRule.CoversKey(PacketKey{NWDst: dst, VLAN: 7}) {
		t.Fatal("vlan-wildcard rule must cover tagged packets")
	}
	// The tagged rule pins dl_vlan.
	if taggedRule.CoversKey(UntaggedPacket(dst)) {
		t.Fatal("tagged rule must not cover untagged packets")
	}
	if !taggedRule.CoversKey(PacketKey{NWDst: dst, VLAN: 7}) {
		t.Fatal("tagged rule misses its own tag")
	}
	if taggedRule.CoversKey(PacketKey{NWDst: dst, VLAN: 8}) {
		t.Fatal("tagged rule covers a different tag")
	}
	// nw_dst still applies on tagged rules.
	other := binary.BigEndian.Uint32(net.IPv4(10, 0, 0, 3).To4())
	if taggedRule.CoversKey(PacketKey{NWDst: other, VLAN: 7}) {
		t.Fatal("tagged rule ignores nw_dst")
	}
}

// opaqueRoundTrip frames body as a message of type typ, which must
// decode to an Unsupported keeping the xid and the body and re-encode
// to the same bytes.
func opaqueRoundTrip(t *testing.T, typ MsgType, body []byte) {
	t.Helper()
	wire := make([]byte, HeaderLen+len(body))
	putHeader(wire, typ, len(wire), 42)
	copy(wire[HeaderLen:], body)
	m, err := Decode(wire)
	if err != nil {
		t.Fatalf("%s: %v", typ, err)
	}
	if u, ok := m.(*Unsupported); !ok || u.Type != typ || u.Xid() != 42 || !bytes.Equal(u.Body, body) {
		t.Fatalf("%s decoded to %+v, want an Unsupported keeping xid and body", typ, m)
	}
	back, err := Encode(m)
	if err != nil || !bytes.Equal(back, wire) {
		t.Fatalf("%s re-encoded to % x (%v), want % x", typ, back, err, wire)
	}
}

// TestUnsupportedRoundTrip: a well-framed message of a type the subset
// does not model is kept, not rejected — the configuration messages a
// controller such as Ryu sends on connect, and a type no version
// defines.
func TestUnsupportedRoundTrip(t *testing.T) {
	opaqueRoundTrip(t, 7, nil)                      // GET_CONFIG_REQUEST
	opaqueRoundTrip(t, 9, []byte{0, 0, 0xff, 0xe5}) // SET_CONFIG
	opaqueRoundTrip(t, 0x63, nil)
	if got := MsgType(9).String(); got != "TYPE_9" {
		t.Fatalf("SET_CONFIG prints as %q", got)
	}
}

// The message types below were modeled once; a peer may still send
// them, and each now travels as an Unsupported.

func TestPacketInRoundTrip(t *testing.T) {
	opaqueRoundTrip(t, 10, []byte{0xff, 0xff, 0xff, 0xff, 0, 7, 0, 4, 0, 0, 'p', 'a', 'y', 'l', 'o', 'a', 'd'})
}

func TestPacketOutRoundTrip(t *testing.T) {
	opaqueRoundTrip(t, 13, []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 16, // buffer, in_port, actions_len
		0, 0, 0, 8, 0, 2, 0, 0, // output:2
		0, 0, 0, 8, 0xff, 0xfb, 0, 0, // output:FLOOD
		0xca, 0xfe, 0xba, 0xbe,
	})
}

func TestStatsRoundTrip(t *testing.T) {
	req := make([]byte, 4+MatchLen+4)
	req[1] = 1 // OFPST_FLOW
	match := ExactNWDst(net.IPv4(10, 0, 0, 2))
	match.encode(req[4 : 4+MatchLen])
	req[4+MatchLen] = 0xff
	binary.BigEndian.PutUint16(req[4+MatchLen+2:], PortNone)
	opaqueRoundTrip(t, 16, req)
	opaqueRoundTrip(t, 17, []byte{0, 1, 0, 0})
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	body := make([]byte, MatchLen+40)
	match := ExactNWDst(net.IPv4(10, 0, 0, 2))
	match.encode(body[:MatchLen])
	body[MatchLen+10] = 1 // OFPRR_HARD_TIMEOUT
	opaqueRoundTrip(t, 11, body)
}

func TestPortStatusRoundTrip(t *testing.T) {
	body := make([]byte, 8+phyPortLen)
	body[0] = 2 // OFPPR_MODIFY
	(&PhyPort{PortNo: 3, Name: "s1-eth3", Curr: 0x840}).encode(body[8:])
	opaqueRoundTrip(t, 12, body)
}

// TestFlowRemovedRejectsBadLength: an opaque body is not unchecked
// framing — a frame shorter than its header's length is rejected.
func TestFlowRemovedRejectsBadLength(t *testing.T) {
	wire := make([]byte, HeaderLen+MatchLen+40)
	putHeader(wire, 11, len(wire), 1)
	if _, err := Decode(wire[:len(wire)-4]); err == nil {
		t.Fatal("truncated FLOW_REMOVED frame accepted")
	}
}

// taggedMatch is the tagged-rule key of a two-phase update: nw_dst ip
// and dl_vlan vlan, both exact.
func taggedMatch(ip net.IP, vlan uint16) Match {
	m := ExactNWDst(ip)
	m.Wildcards &^= WildcardDLVLAN
	m.DLVLAN = vlan
	return m
}
