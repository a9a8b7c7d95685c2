package controller

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/metrics"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// This file is the engine's southbound dispatch path. The ack-driven
// dispatcher used to spawn one goroutine per plan node — send the
// FlowMods, send a barrier, park on the reply — which capped the
// engine far below the 100k-switch tier: every install cost a
// goroutine, a timer, and one write syscall per message. The path
// removes all three:
//
//   - The walk writes its own installs (Engine.send): a released
//     node's FlowMod, built from its rule in the walk's pooled wireMod,
//     and one re-stamped barrier are encoded into the walk's pooled
//     batch and go out as ONE buffered write on the switch's
//     connection, which ofconn locks per connection.
//   - Barrier replies are routed by the connection's read loop
//     straight into the owning walk's ack channel as plain values
//     (datapath.sinks) — no goroutine ever waits per barrier.
//   - Per-walk dispatch state (ack channel, rings, node-state bytes,
//     batch) recycles through a pool, and barrier timeouts are
//     synthesized by the walk's event loop from a FIFO deadline ring
//     with a single re-armed clock timer.
//
// Steady state the path runs zero goroutines and zero allocations per
// install (pinned by TestDispatchPathAllocs). Every FlowMod+barrier
// pair the package sends goes through it (Engine.walk): a job's forward
// pass, its rollback, a policy install and a bare Barrier alike.

// barrierSink routes one in-flight install's BarrierReply from the
// connection read loop into the owning walk's ack channel, as a value.
// Registered under datapath.mu keyed by the barrier xid, removed on
// delivery, when the write fails, or when the walk ends without the
// reply (Engine.dropSinks). seq is the walk's sequence number, not a
// job id: a job walks twice when it rolls back, and a policy install
// walks with no job at all.
type barrierSink struct {
	acks    chan<- nodeAck
	seq     uint64
	idx     int32
	started time.Time
}

// Node dispatch states, tracked per plan node by the walk's event loop.
// Acks are accepted only for nsInflight nodes, which dedupes the
// (rare) double outcome: a write error racing a partial-write reply, or
// a reply racing a synthesized timeout.
const (
	nsIdle     byte = iota
	nsQueued        // journaled write-ahead, waiting for its send slot
	nsInflight      // written; barrier reply or deadline pending
	nsDone          // ack consumed (confirmed, failed, or abandoned)
)

// dispatcher recycles walk state and gauges what the walks hold.
type dispatcher struct {
	pool     sync.Pool     // *jobDispatch
	confirms sync.Pool     // *confirmList
	seq      atomic.Uint64 // last walk sequence number handed out
	ready    metrics.Gauge // journaled installs waiting for their send slot
	inflight metrics.Gauge // installs written, barrier reply pending
}

// acquire returns a recycled (or fresh) dispatch state for one walk of
// an n-node plan, stamped with a fresh sequence number. The ack channel
// holds a reply per node with as much room again for stale replies to
// the state's previous walk; those already queued are drained here, and
// any arriving later are ignored by the new owner's sequence filter.
func (d *dispatcher) acquire(n int, w walkSpec) *jobDispatch {
	st, _ := d.pool.Get().(*jobDispatch)
	if st == nil {
		st = &jobDispatch{}
	}
	st.walkSpec = w
	st.seq = d.seq.Add(1)
	if need := 2*n + 16; cap(st.acks) < need {
		st.acks = make(chan nodeAck, need)
	}
drain:
	for {
		select {
		case <-st.acks:
		default:
			break drain
		}
	}
	st.dispatched = resize(st.dispatched, n)
	st.confirmed = resize(st.confirmed, n)
	st.status = resize(st.status, n)
	st.releasedBy = resize(st.releasedBy, n)
	st.wave = st.wave[:0]
	st.ready.reset(n)
	st.sendNow.reset(n)
	st.sendq.reset(n)
	st.deads.reset(n)
	st.nDone = 0
	st.failing = nil
	return st
}

// release recycles an ended walk's dispatch state. The pool must not
// keep the plan or the hooks' captures alive.
func (d *dispatcher) release(st *jobDispatch) {
	st.walkSpec = walkSpec{}
	d.pool.Put(st)
}

// deliver is called from a connection read loop when a BarrierReply
// resolves a registered sink: the ack goes to the owning walk as a
// value. Non-blocking — the ack channel is sized for every live
// source, so a full channel means the walk is gone (stale reply) or
// wedged; either way a drop is safe (a live node would later fail on
// its deadline) and counted.
func (d *dispatcher) deliver(s barrierSink, now time.Time) {
	select {
	case s.acks <- nodeAck{seq: s.seq, idx: int(s.idx), sent: true, started: s.started, finished: now}:
	default:
		metrics.DispatchAcksDropped.Inc()
	}
}

// jobDispatch is one walk's pooled dispatch state, owned by the walk's
// goroutine (Engine.walk).
type jobDispatch struct {
	walkSpec
	seq  uint64
	acks chan nodeAck

	dispatched []bool // the FlowMod possibly reached the switch
	confirmed  []bool // barrier reply received
	status     []byte // ns* per node
	releasedBy []topo.NodeID

	wave    []int       // current release wave (one grouped journal append)
	ready   ring[int32] // release-traversal scratch (see collectWave)
	sendNow ring[int32] // journaled, sendable immediately
	sendq   ring[timed] // journaled, paused until its interval due time
	deads   ring[timed] // in-flight barrier deadlines, FIFO

	batch   ofconn.Batch            // one install's wire bytes, reused
	mod     wireMod                 // the install's FlowMod, built from its rule; encoded at Add time
	barrier openflow.BarrierRequest // re-stamped per install; encoded at Add time

	nDone   int   // nodes that reached nsDone
	failing error // first failure; non-nil ends the walk
}

// noteFailure records the walk's first failure, which ends it: no one
// else holds its installs, so nothing of it can reach a wire once the
// walk stops writing.
func (st *jobDispatch) noteFailure(err error) {
	if st.failing == nil {
		st.failing = err
	}
}

// send writes released node i on the walk's own goroutine: its FlowMod
// and one re-stamped barrier go out as one write on the switch's
// connection, the barrier's sink registered first so a fast reply always
// finds it, and its deadline armed on the controller's injected clock —
// so virtual-clock runs time out at RoundTimeout virtual time. A failure
// is settled on the spot by the rules every outcome follows (handleAck).
func (e *Engine) send(st *jobDispatch, i int) {
	st.status[i] = nsInflight
	e.disp.ready.Dec()
	e.disp.inflight.Inc()
	if sent, err := e.write(st, i); err != nil {
		e.handleAck(st, nodeAck{seq: st.seq, idx: i, sent: sent, err: err})
	}
}

// write puts node i on the wire: its rule's FlowMod, the only one the
// walk builds, and its barrier. sent reports, on error, whether any of
// it may have reached the switch: an encoding error leaves nothing; a
// missing connection or a failed write may have — a write error does not
// prove the switch never saw the bytes, and the undo rules are
// idempotent, so the node stays dispatched and only its sink goes.
func (e *Engine) write(st *jobDispatch, i int) (sent bool, err error) {
	plan := st.plan
	dp, err := e.c.datapath(uint64(plan.sw(i)))
	if err != nil {
		return true, installErr(plan, i, "sending flowmod", err)
	}
	st.batch.Reset()
	if r := plan.rules[i]; r.kind != ruleBarrier {
		fm := st.mod.build(r, plan.match)
		fm.SetXid(dp.conn.NextXid())
		if err := st.batch.Add(fm); err != nil {
			return false, installErr(plan, i, "sending flowmod", err)
		}
	}
	xid := dp.conn.NextXid()
	st.barrier.SetXid(xid)
	if err := st.batch.Add(&st.barrier); err != nil {
		return false, installErr(plan, i, "barrier", err)
	}
	now := e.c.clock.Now()
	dp.mu.Lock()
	dp.sinks[xid] = barrierSink{acks: st.acks, seq: st.seq, idx: int32(i), started: now}
	dp.mu.Unlock()
	st.deads.push(timed{int32(i), now.Add(e.c.cfg.RoundTimeout)})
	metrics.DispatchBatchMsgs.Observe(int64(st.batch.Len()))
	if err := dp.conn.WriteBatch(&st.batch); err != nil {
		dp.mu.Lock()
		delete(dp.sinks, xid)
		dp.mu.Unlock()
		return true, installErr(plan, i, "sending flowmod", err)
	}
	return false, nil
}

// installErr names the install a walk could not send.
func installErr(plan *execPlan, i int, what string, err error) error {
	return fmt.Errorf("install at %d (layer %d): %s: %w", plan.sw(i), plan.layers[i], what, err)
}

// resize returns a zeroed slice of length n, reusing b's array.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// ring is a growable FIFO, pooled with its walk state: steady-state
// pushes and pops do not allocate.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// reset empties the ring with room for n entries: a walk pushes each of
// its n nodes at most once per ring, so a fresh ring is sized to the
// walk instead of growing, and a pooled one keeps what it has.
func (r *ring[T]) reset(n int) {
	r.head, r.n = 0, 0
	if len(r.buf) < n {
		r.buf = make([]T, n)
	}
}

func (r *ring[T]) len() int { return r.n }
func (r *ring[T]) peek() T  { return r.buf[r.head] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(64, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// timed is a node with an instant: its send slot's due time, or its
// barrier deadline. Both queues are pushed in nondecreasing instant
// order, so a ring's head is always the earliest.
type timed struct {
	idx int32
	at  time.Time
}
