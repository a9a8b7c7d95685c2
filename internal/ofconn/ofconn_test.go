package ofconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsu/internal/openflow"
)

// pipePair returns two connected Conns over loopback TCP. Real TCP
// (not net.Pipe) because the handshake legitimately has both sides
// write HELLO before reading — fine with kernel socket buffers,
// deadlock on an unbuffered in-memory pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := tcpPair(t)
	ca, cb := New(a), New(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acceptc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acceptc <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptc
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	return a, acc.c
}

func TestReadWriteMessage(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		m := &openflow.EchoRequest{Data: []byte("hello")}
		m.SetXid(42)
		ca.WriteMessage(m) //nolint:errcheck // test writer
	}()
	m, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	echo, ok := m.(*openflow.EchoRequest)
	if !ok || echo.Xid() != 42 || string(echo.Data) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestReadMessageAcrossPartialWrites(t *testing.T) {
	// Framing must survive byte-dribbled delivery.
	a, b := net.Pipe()
	cb := New(b)
	defer a.Close()
	defer cb.Close()

	m := &openflow.EchoRequest{Data: []byte("fragmented-payload")}
	m.SetXid(7)
	wire, err := openflow.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, chunk := range [][]byte{wire[:3], wire[3:10], wire[10:]} {
			a.Write(chunk) //nolint:errcheck // test writer
			time.Sleep(time.Millisecond)
		}
	}()
	got, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if echo := got.(*openflow.EchoRequest); string(echo.Data) != "fragmented-payload" {
		t.Fatalf("got %+v", got)
	}
}

func TestReadMessageBackToBack(t *testing.T) {
	// Two messages in one write must be framed separately.
	a, b := net.Pipe()
	cb := New(b)
	defer a.Close()
	defer cb.Close()

	m1 := &openflow.BarrierRequest{}
	m1.SetXid(1)
	m2 := &openflow.BarrierReply{}
	m2.SetXid(2)
	w1, _ := openflow.Encode(m1)
	w2, _ := openflow.Encode(m2)
	go a.Write(append(w1, w2...)) //nolint:errcheck // test writer

	first, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if first.MsgType() != openflow.TypeBarrierRequest || second.MsgType() != openflow.TypeBarrierReply {
		t.Fatalf("order: %s then %s", first.MsgType(), second.MsgType())
	}
}

func TestNextXidUniqueUnderConcurrency(t *testing.T) {
	c := New(nil2())
	defer c.Close()
	const n = 64
	const per = 1000
	var mu sync.Mutex
	seen := make(map[uint32]bool, n*per)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint32, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, c.NextXid())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, x := range local {
				if x == 0 {
					t.Error("zero xid allocated")
				}
				if seen[x] {
					t.Errorf("duplicate xid %d", x)
				}
				seen[x] = true
			}
		}()
	}
	wg.Wait()
}

// nil2 returns a throwaway connection for xid-only tests.
func nil2() net.Conn {
	a, b := net.Pipe()
	go func() { _ = b }()
	return a
}

func TestHandshakeBothSides(t *testing.T) {
	ca, cb := pipePair(t)
	features := &openflow.FeaturesReply{DatapathID: 42, NTables: 1}

	errc := make(chan error, 1)
	go func() { errc <- HandshakeSwitch(cb, features) }()

	got, err := HandshakeController(ca)
	if err != nil {
		t.Fatal(err)
	}
	if got.DatapathID != 42 {
		t.Fatalf("dpid = %d", got.DatapathID)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// writeCounter counts the writes made on a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestHandshakeControllerPipelined: the controller's HELLO and
// FEATURES_REQUEST leave in one write, so the handshake costs the
// controller one write and the switch's reply one round trip.
func TestHandshakeControllerPipelined(t *testing.T) {
	a, b := tcpPair(t)
	wc := &writeCounter{Conn: a}
	ca, cb := New(wc), New(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	errc := make(chan error, 1)
	go func() { errc <- HandshakeSwitch(cb, &openflow.FeaturesReply{DatapathID: 7}) }()
	fr, err := HandshakeController(ca)
	if err != nil || fr.DatapathID != 7 {
		t.Fatalf("handshake: %+v, %v", fr, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := wc.writes.Load(); n != 1 {
		t.Fatalf("the controller wrote %d times before the features reply, want 1", n)
	}
}

func TestHandshakeControllerRejectsNonHello(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		// Drain the controller's hello, then send garbage.
		cb.ReadMessage() //nolint:errcheck // test peer
		m := &openflow.BarrierRequest{}
		m.SetXid(1)
		cb.WriteMessage(m) //nolint:errcheck // test peer
	}()
	if _, err := HandshakeController(ca); err == nil {
		t.Fatal("non-hello accepted")
	}
}

func TestHandshakeSurvivesEchoDuringFeatures(t *testing.T) {
	ca, cb := pipePair(t)
	errc := make(chan error, 1)
	go func() {
		// Switch side: hello, read hello, read features request, but
		// interleave an echo request before the features reply.
		if _, err := cb.Send(&openflow.Hello{}); err != nil {
			errc <- err
			return
		}
		if _, err := cb.ReadMessage(); err != nil { // controller hello
			errc <- err
			return
		}
		req, err := cb.ReadMessage() // features request
		if err != nil {
			errc <- err
			return
		}
		if _, err := cb.Send(&openflow.EchoRequest{Data: []byte("mid")}); err != nil {
			errc <- err
			return
		}
		if _, err := cb.ReadMessage(); err != nil { // echo reply
			errc <- err
			return
		}
		fr := &openflow.FeaturesReply{DatapathID: 9}
		fr.SetXid(req.Xid())
		errc <- cb.WriteMessage(fr)
	}()
	fr, err := HandshakeController(ca)
	if err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 9 {
		t.Fatalf("dpid = %d", fr.DatapathID)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestFormatDpid(t *testing.T) {
	if got := FormatDpid(3); got != "0000000000000003" {
		t.Fatalf("FormatDpid(3) = %q", got)
	}
	if got := FormatDpid(0xdeadbeef); got != "00000000deadbeef" {
		t.Fatalf("FormatDpid = %q", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, _ := net.Pipe()
	c := New(a)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMessageLargerThanReadBuffer(t *testing.T) {
	// A frame bigger than the connection's read buffer, queued behind
	// and ahead of small ones: each comes out whole and in order.
	ca, cb := pipePair(t)
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	sent := []openflow.Message{
		&openflow.EchoRequest{Data: []byte("a")},
		&openflow.BarrierRequest{},
		&openflow.EchoRequest{Data: []byte("b")},
		&openflow.Vendor{Vendor: 0x5453, Data: big},
		&openflow.BarrierReply{},
		&openflow.EchoRequest{Data: []byte("c")},
	}
	go func() {
		for i, m := range sent {
			m.SetXid(uint32(i + 1))
			ca.WriteMessage(m) //nolint:errcheck // test writer
		}
	}()
	for i, want := range sent {
		got, err := cb.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.MsgType() != want.MsgType() || got.Xid() != uint32(i+1) {
			t.Fatalf("message %d: %s xid %d, want %s xid %d", i, got.MsgType(), got.Xid(), want.MsgType(), i+1)
		}
		if v, ok := got.(*openflow.Vendor); ok && !bytes.Equal(v.Data, big) {
			t.Fatalf("vendor payload of %d bytes came back changed (%d bytes)", len(big), len(v.Data))
		}
	}
}

func TestReadMessageBurstLargerThanReadBuffer(t *testing.T) {
	// 50 FlowMods and their barrier in one write — eight read buffers'
	// worth, frames straddling every refill: each comes out whole and in
	// order.
	ca, cb := pipePair(t)
	var batch Batch
	for i := 0; i < 50; i++ {
		fm := &openflow.FlowMod{
			Match:    openflow.Match{NWDst: uint32(i)},
			Cookie:   uint64(i) << 32,
			Priority: uint16(i),
			BufferID: openflow.NoBuffer,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: uint16(i + 1)}},
		}
		fm.SetXid(uint32(i + 1))
		if err := batch.Add(fm); err != nil {
			t.Fatal(err)
		}
	}
	barrier := &openflow.BarrierRequest{}
	barrier.SetXid(51)
	if err := batch.Add(barrier); err != nil {
		t.Fatal(err)
	}
	if len(batch.buf) <= 4*readBufSize {
		t.Fatalf("burst of %d bytes does not outgrow the %d-byte read buffer", len(batch.buf), readBufSize)
	}
	go ca.WriteBatch(&batch) //nolint:errcheck // test writer
	for i := 0; i < 50; i++ {
		got, err := cb.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		fm, ok := got.(*openflow.FlowMod)
		if !ok || fm.Xid() != uint32(i+1) || fm.Match.NWDst != uint32(i) || fm.Cookie != uint64(i)<<32 ||
			fm.Priority != uint16(i) || len(fm.Actions) != 1 {
			t.Fatalf("message %d came back as %+v", i, got)
		}
	}
	if got, err := cb.ReadMessage(); err != nil || got.MsgType() != openflow.TypeBarrierRequest || got.Xid() != 51 {
		t.Fatalf("after the burst: %v, %v", got, err)
	}
}

// streamConn is a net.Conn whose reads drain stream; nothing else of
// net.Conn is used.
type streamConn struct {
	net.Conn
	stream []byte
}

func (s *streamConn) Read(p []byte) (int, error) {
	if len(s.stream) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.stream)
	s.stream = s.stream[n:]
	return n, nil
}

// everyMessage holds one message of each type the decoder knows, and
// an Unsupported, every byte field and port name set.
func everyMessage() []openflow.Message {
	fm := &openflow.FlowMod{
		Match:    openflow.ExactNWDst([]byte{10, 0, 0, 2}),
		Cookie:   7 << 32,
		Command:  openflow.FlowModify,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 3}},
	}
	port := openflow.PhyPort{PortNo: 2, HWAddr: [6]byte{2, 0, 0, 0, 1, 2}, Name: "s1-eth2", Peer: 4}
	return []openflow.Message{
		&openflow.Hello{Elements: []byte{0, 1, 0, 8, 0, 0, 0, 2}},
		&openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadLen, Data: []byte("offending")},
		&openflow.EchoRequest{Data: []byte("ping")},
		&openflow.EchoReply{Data: []byte("pong")},
		&openflow.Vendor{Vendor: 0x5453, Data: []byte("plan partition")},
		&openflow.FeaturesRequest{},
		&openflow.FeaturesReply{DatapathID: 1, NBuffers: 256, NTables: 1, Ports: []openflow.PhyPort{port, {PortNo: 3, Name: "s1-h1"}}},
		fm,
		&openflow.Unsupported{Type: 10, Body: []byte{0xff, 0xff, 0xff, 0xff, 0, 4, 0, 1, 0, 0, 10, 0, 0, 2}},
		&openflow.BarrierRequest{},
		&openflow.BarrierReply{},
	}
}

// TestReadMessageOwnsItsBytes: a frame that fits the read buffer is
// decoded where it lies there, so a decoded message must own every byte
// field and port name. Each message type goes through a Conn; frames
// read after it overwrite the whole read buffer; the message still
// equals a decoding of its own pristine copy.
func TestReadMessageOwnsItsBytes(t *testing.T) {
	msgs := everyMessage()
	sc := &streamConn{}
	var want []openflow.Message
	for i, m := range msgs {
		m.SetXid(uint32(i + 1))
		wire, err := openflow.Encode(m)
		if err != nil {
			t.Fatalf("%s: %v", m.MsgType(), err)
		}
		if len(wire) > readBufSize {
			t.Fatalf("%s: %d-byte frame does not fit the read buffer", m.MsgType(), len(wire))
		}
		back, err := openflow.Decode(bytes.Clone(wire))
		if err != nil {
			t.Fatalf("%s: %v", m.MsgType(), err)
		}
		want = append(want, back)
		sc.stream = append(sc.stream, wire...)
	}
	junk := &openflow.EchoRequest{Data: bytes.Repeat([]byte{0xa5}, 100)}
	junkWire, err := openflow.Encode(junk)
	if err != nil {
		t.Fatal(err)
	}
	const junkFrames = 4 * readBufSize / 100
	for i := 0; i < junkFrames; i++ {
		sc.stream = append(sc.stream, junkWire...)
	}

	c := New(sc)
	got := make([]openflow.Message, len(msgs))
	for i := range got {
		if got[i], err = c.ReadMessage(); err != nil {
			t.Fatalf("message %d (%s): %v", i, msgs[i].MsgType(), err)
		}
	}
	for i := 0; i < junkFrames; i++ {
		if _, err := c.ReadMessage(); err != nil {
			t.Fatalf("junk frame %d: %v", i, err)
		}
	}
	if _, err := c.ReadMessage(); err != io.EOF {
		t.Fatalf("after the stream: %v, want EOF", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s changed once the read buffer was reused:\n got %+v\nwant %+v", msgs[i].MsgType(), got[i], want[i])
		}
	}
}

// TestReadMessageTruncatedFrame: a stream that ends inside a frame
// reports io.ErrUnexpectedEOF, in the header or in the body, and one
// that ends between frames io.EOF.
func TestReadMessageTruncatedFrame(t *testing.T) {
	wire, err := openflow.Encode(&openflow.EchoRequest{Data: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n    int
		want error
	}{{0, io.EOF}, {3, io.ErrUnexpectedEOF}, {openflow.HeaderLen, io.EOF}, {len(wire) - 1, io.ErrUnexpectedEOF}} {
		_, err := New(&streamConn{stream: bytes.Clone(wire[:tc.n])}).ReadMessage()
		if !errors.Is(err, tc.want) || (tc.want == io.EOF && errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("stream cut after %d of %d bytes: %v, want %v", tc.n, len(wire), err, tc.want)
		}
	}
}

// TestReconnectReadsNothingOfTheReleasedConn: a connection released
// with unread bytes in its buffer hands the next connection a clean
// buffer — whether the pool gives that buffer back or a new one — and
// a second Release does nothing.
func TestReconnectReadsNothingOfTheReleasedConn(t *testing.T) {
	frame := func(xid uint32) []byte {
		m := &openflow.EchoRequest{Data: []byte("ping")}
		m.SetXid(xid)
		wire, err := openflow.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	for i := 0; i < 8; i++ {
		old := New(&streamConn{stream: append(frame(1), frame(2)...)})
		if m, err := old.ReadMessage(); err != nil || m.Xid() != 1 {
			t.Fatalf("first read = %v, %v", m, err)
		}
		old.Release() // frame 2 is still buffered
		old.Release()
		next := New(&streamConn{stream: frame(3)})
		if m, err := next.ReadMessage(); err != nil || m.Xid() != 3 {
			t.Fatalf("the next connection read %v, %v; want its own frame (xid 3)", m, err)
		}
		if m, err := next.ReadMessage(); err != io.EOF {
			t.Fatalf("the next connection read %v, %v past its stream; want EOF", m, err)
		}
		next.Release()
	}
}
