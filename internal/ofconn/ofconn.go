// Package ofconn provides OpenFlow connection plumbing over a byte
// stream: message framing (reading exactly one length-prefixed message
// at a time), concurrent-safe writing, transaction-id allocation, and
// the version/features handshake both ends of the control channel run.
//
// The control channel is a TCP connection per switch; TCP preserves
// ordering per switch, so the asynchrony the paper battles is across
// switches (different RTTs, queueing, install latencies) — which is
// exactly what the simulator injects (see internal/netem and
// internal/switchsim).
package ofconn

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/openflow"
)

// Conn frames OpenFlow messages over a net.Conn. Reads must come from a
// single goroutine; writes may come from many. The reading goroutine
// calls Release after its last ReadMessage.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	writeMu sync.Mutex
	xid     atomic.Uint32

	closeOnce sync.Once
	closeErr  error
}

// readBufSize is the read buffer of one end of a control channel: a
// FlowMod + barrier burst is 88 bytes and a FeaturesReply a few hundred,
// so 512 holds what one read usually brings; a fleet pays it twice per
// switch.
const readBufSize = 512

// readerPool recycles read buffers across connections, as net/http's
// server does: a fleet that reconnects takes back the buffers its dead
// connections released instead of allocating new ones.
var readerPool sync.Pool

// New wraps a network connection. A burst longer than the read buffer
// costs one read syscall per readBufSize bytes (six FlowMods), and a
// frame larger than the buffer is read straight from the socket.
func New(nc net.Conn) *Conn {
	br, _ := readerPool.Get().(*bufio.Reader)
	if br == nil {
		br = bufio.NewReaderSize(nc, readBufSize)
	} else {
		br.Reset(nc)
	}
	return &Conn{nc: nc, br: br}
}

// Release returns the read buffer to the pool. Only the goroutine that
// reads may call it, and only after its last ReadMessage; the Conn can
// still write and Close. Calling it again does nothing.
func (c *Conn) Release() {
	if c.br == nil {
		return
	}
	c.br.Reset(nil) // pin neither the socket nor unread bytes
	readerPool.Put(c.br)
	c.br = nil
}

// NextXid allocates a fresh non-zero transaction id.
func (c *Conn) NextXid() uint32 {
	for {
		if x := c.xid.Add(1); x != 0 {
			return x
		}
	}
}

// ReadMessage reads and decodes exactly one message. A frame that fits
// the read buffer is decoded where it lies in the buffer and then
// discarded, so reading it allocates only the decoded message: every
// decoder copies the bytes it keeps.
func (c *Conn) ReadMessage() (openflow.Message, error) {
	hdr, err := c.br.Peek(openflow.HeaderLen)
	if err != nil {
		return nil, unexpectedEOF(err, len(hdr) > 0)
	}
	h, err := openflow.ParseHeader(hdr)
	if err != nil {
		c.br.Discard(openflow.HeaderLen) //nolint:errcheck // peeked above
		return nil, err
	}
	n := int(h.Length)
	if n <= c.br.Size() {
		frame, err := c.br.Peek(n)
		if err != nil {
			return nil, fmt.Errorf("ofconn: reading %s body: %w", h.Type, unexpectedEOF(err, len(frame) > openflow.HeaderLen))
		}
		m, err := openflow.Decode(frame)
		c.br.Discard(n) //nolint:errcheck // peeked above
		return m, err
	}
	buf := make([]byte, n)
	copy(buf, hdr)
	c.br.Discard(openflow.HeaderLen) //nolint:errcheck // peeked above
	if _, err := io.ReadFull(c.br, buf[openflow.HeaderLen:]); err != nil {
		return nil, fmt.Errorf("ofconn: reading %s body: %w", h.Type, err)
	}
	return openflow.Decode(buf)
}

// unexpectedEOF reports an end of stream the way io.ReadFull does: EOF
// only if none of the part being read had arrived.
func unexpectedEOF(err error, partial bool) error {
	if partial && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// wirePool recycles encode buffers across connections: the live
// deployment path encodes every outgoing message into a pooled buffer
// via openflow.AppendTo, so steady-state writes do not allocate per
// message.
var wirePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// WriteMessage encodes and writes one message. It is safe for
// concurrent use; each message is written atomically. Encoding runs
// through a pooled buffer (see openflow.AppendTo): no per-message
// allocation in steady state.
func (c *Conn) WriteMessage(m openflow.Message) error {
	bp := wirePool.Get().(*[]byte)
	wire, err := openflow.AppendTo((*bp)[:0], m)
	if err != nil {
		wirePool.Put(bp)
		return err
	}
	c.writeMu.Lock()
	_, err = c.nc.Write(wire)
	c.writeMu.Unlock()
	*bp = wire[:0] // keep any growth for the next message
	wirePool.Put(bp)
	return err
}

// Batch accumulates the wire encodings of several messages for one
// coalesced write. The zero value is ready to use; a Batch retained
// across flushes keeps its grown buffer, so steady-state batched
// writes do not allocate. A Batch is not safe for concurrent use —
// each of the controller's walks owns one.
type Batch struct {
	buf []byte
	n   int
}

// Reset empties the batch, keeping the buffer.
func (b *Batch) Reset() { b.buf, b.n = b.buf[:0], 0 }

// Len returns the number of messages accumulated.
func (b *Batch) Len() int { return b.n }

// Add appends one message's encoding to the batch. The message is
// encoded immediately, so the caller may reuse it (e.g. re-stamping a
// shared BarrierRequest's xid between Adds). On error the batch is
// unchanged.
func (b *Batch) Add(m openflow.Message) error {
	wire, err := openflow.AppendTo(b.buf, m)
	if err != nil {
		return err
	}
	b.buf = wire
	b.n++
	return nil
}

// WriteBatch writes every message accumulated in b as a single
// buffered write — one syscall (and one TCP segment train) for the
// whole group instead of one per message — then resets b. Writing an
// empty batch is a no-op. Safe for concurrent use with WriteMessage;
// the batch is written atomically with respect to other writers.
func (c *Conn) WriteBatch(b *Batch) error {
	if b.n == 0 {
		return nil
	}
	c.writeMu.Lock()
	_, err := c.nc.Write(b.buf)
	c.writeMu.Unlock()
	b.Reset()
	return err
}

// Send allocates a transaction id for m, writes it, and returns the id.
func (c *Conn) Send(m openflow.Message) (uint32, error) {
	m.SetXid(c.NextXid())
	if err := c.WriteMessage(m); err != nil {
		return 0, err
	}
	return m.Xid(), nil
}

// SetReadDeadline bounds the next ReadMessage.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close closes the underlying connection once.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// handshakeTimeout bounds each handshake step.
const handshakeTimeout = 10 * time.Second

// HandshakeController runs the controller side of the OpenFlow
// handshake: HELLO and FEATURES_REQUEST go out as one write (pipelined:
// the request does not wait for the peer's HELLO), then the peer's
// HELLO and its features reply are read; returns the switch's features
// reply (datapath id and ports).
func HandshakeController(c *Conn) (*openflow.FeaturesReply, error) {
	var b Batch
	req := &openflow.FeaturesRequest{}
	for _, m := range []openflow.Message{&openflow.Hello{}, req} {
		m.SetXid(c.NextXid())
		if err := b.Add(m); err != nil {
			return nil, fmt.Errorf("ofconn: encoding %s: %w", m.MsgType(), err)
		}
	}
	if err := c.WriteBatch(&b); err != nil {
		return nil, fmt.Errorf("ofconn: sending hello and features request: %w", err)
	}
	if err := c.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	m, err := c.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("ofconn: awaiting hello: %w", err)
	}
	if _, ok := m.(*openflow.Hello); !ok {
		return nil, fmt.Errorf("ofconn: expected HELLO, got %s", m.MsgType())
	}
	for {
		m, err := c.ReadMessage()
		if err != nil {
			return nil, fmt.Errorf("ofconn: awaiting features reply: %w", err)
		}
		switch fr := m.(type) {
		case *openflow.FeaturesReply:
			if fr.Xid() != req.Xid() {
				return nil, fmt.Errorf("ofconn: features reply xid %d, want %d", fr.Xid(), req.Xid())
			}
			return fr, nil
		case *openflow.EchoRequest:
			reply := &openflow.EchoReply{Data: fr.Data}
			reply.SetXid(fr.Xid())
			if err := c.WriteMessage(reply); err != nil {
				return nil, err
			}
		case *openflow.Error:
			return nil, fmt.Errorf("ofconn: switch reported %w during handshake", fr)
		default:
			return nil, fmt.Errorf("ofconn: unexpected %s during handshake", m.MsgType())
		}
	}
}

// HandshakeSwitch runs the switch side: exchange HELLO, answer the
// features request with the given reply body.
func HandshakeSwitch(c *Conn, features *openflow.FeaturesReply) error {
	if _, err := c.Send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("ofconn: sending hello: %w", err)
	}
	if err := c.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	defer c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	m, err := c.ReadMessage()
	if err != nil {
		return fmt.Errorf("ofconn: awaiting hello: %w", err)
	}
	if _, ok := m.(*openflow.Hello); !ok {
		return fmt.Errorf("ofconn: expected HELLO, got %s", m.MsgType())
	}
	m, err = c.ReadMessage()
	if err != nil {
		return fmt.Errorf("ofconn: awaiting features request: %w", err)
	}
	req, ok := m.(*openflow.FeaturesRequest)
	if !ok {
		return fmt.Errorf("ofconn: expected FEATURES_REQUEST, got %s", m.MsgType())
	}
	features.SetXid(req.Xid())
	return c.WriteMessage(features)
}

// FormatDpid formats a datapath id the way OpenFlow tooling prints it
// (16 hex digits), for logs and REST payloads.
func FormatDpid(dpid uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[dpid&0xf]
		dpid >>= 4
	}
	return string(b[:])
}
