package controller

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/metrics"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// This file is the engine's sharded dispatch path. The ack-driven
// dispatcher used to spawn one goroutine per plan node — send the
// FlowMods, send a barrier, park on the reply — which capped the
// engine far below the 100k-switch tier: every install cost a
// goroutine, a timer, and one write syscall per message. The sharded
// path removes all three:
//
//   - A fixed pool of dispatch shards (GOMAXPROCS of them), each
//     owning a stable subset of switch connections (dpid % shards).
//     A shard drains its request channel, groups the ready installs
//     by connection, and writes each connection's FlowMods+barriers
//     as ONE coalesced buffered write (ofconn.Batch).
//   - Barrier replies are routed by the connection's read loop
//     straight into the owning walk's ack channel as plain values
//     (datapath.sinks) — no goroutine ever waits per barrier.
//   - Per-walk dispatch state (ack channel, rings, node-state bytes)
//     recycles through a pool, and barrier timeouts are synthesized
//     by the walk's event loop from a FIFO deadline ring with a single
//     re-armed clock timer.
//
// Steady state the path runs zero goroutines and zero allocations per
// install (pinned by TestDispatchPathAllocs). Every FlowMod+barrier
// pair the package sends goes through it (Engine.walk): a job's forward
// pass, its rollback, a policy install and a bare Barrier alike.

// fenceIdx marks a shardReq as a fence: the shard bounces it back
// through the walk's ack channel after its current flush cycle. A
// failing walk fences every shard before it ends — shards process
// requests in order, so once each fence returns, no FlowMod of the
// walk can reach a wire anymore and the dispatched set is exact.
const fenceIdx = -1

// shardReq hands one ready install (or a fence) to the dispatch shard
// owning its switch connection. Plain values only: enqueueing never
// allocates. plan and seq are the walk's own, carried by value: a write
// error can surface after the install's reply already ended the walk
// and st went back to the pool, and the nack must still name the right
// install and be filtered as stale.
type shardReq struct {
	plan *execPlan
	st   *jobDispatch
	seq  uint64
	idx  int
}

// barrierSink routes one in-flight install's BarrierReply from the
// connection read loop into the owning walk's ack channel, as a value.
// Registered under datapath.mu keyed by the barrier xid, removed on
// delivery, when the coalesced write fails, or when the walk ends
// without the reply (Engine.dropSinks). seq is the walk's sequence
// number, not a job id: a job walks twice when it rolls back, and a
// policy install walks with no job at all.
type barrierSink struct {
	acks     chan<- nodeAck
	seq      uint64
	idx      int32
	flowMods int32
	started  time.Time
}

// Node dispatch states, tracked per plan node by the walk's event loop.
// Acks are accepted only for nsInflight nodes, which dedupes the
// (rare) double ack: a write error racing a partial-write reply, or a
// reply racing a synthesized timeout.
const (
	nsIdle     byte = iota
	nsQueued        // journaled write-ahead, waiting for its send slot
	nsInflight      // handed to a shard; barrier reply or deadline pending
	nsDone          // ack consumed (confirmed, failed, or abandoned)
)

// dispatcher is the engine's shard pool plus the walk-state recycler.
type dispatcher struct {
	e        *Engine
	shards   []*dispatchShard
	inflight []metrics.Gauge // per-shard in-flight installs
	pool     sync.Pool       // *jobDispatch
	seq      atomic.Uint64   // last walk sequence number handed out
}

func newDispatcher(e *Engine) *dispatcher {
	nshards := runtime.GOMAXPROCS(0)
	d := &dispatcher{e: e, inflight: make([]metrics.Gauge, nshards)}
	for i := 0; i < nshards; i++ {
		d.shards = append(d.shards, &dispatchShard{
			d:     d,
			id:    i,
			reqs:  make(chan shardReq, 1024),
			conns: make(map[uint64]*connBatch),
		})
	}
	d.pool.New = func() any { return &jobDispatch{} }
	return d
}

// start launches the shard loops; they exit with ctx.
func (d *dispatcher) start(ctx context.Context) {
	for _, s := range d.shards {
		go s.run(ctx)
	}
}

// shardFor maps a switch connection to its owning shard — stable for
// the controller's lifetime, so a connection's writes are never
// contended across shards.
func (d *dispatcher) shardFor(dpid uint64) int { return int(dpid % uint64(len(d.shards))) }

// DispatchStats is a live snapshot of the dispatch path for
// /v1/healthz.
type DispatchStats struct {
	Shards     int
	ReadyDepth int64
	InFlight   []int64
}

func (d *dispatcher) stats() DispatchStats {
	s := DispatchStats{
		Shards:     len(d.shards),
		ReadyDepth: metrics.DispatchReadyDepth.Value(),
		InFlight:   make([]int64, len(d.shards)),
	}
	for i := range d.inflight {
		s.InFlight[i] = d.inflight[i].Value()
	}
	return s
}

// acquire returns a recycled (or fresh) dispatch state for one walk of
// an n-node plan, stamped with a fresh sequence number. The ack channel
// is sized so every live source — at most two acks per in-flight node
// plus one fence per shard — fits without blocking; leftover stale acks
// from a previous owner are drained here and ignored by the new owner's
// sequence filter.
func (d *dispatcher) acquire(n int, w walkSpec) *jobDispatch {
	st := d.pool.Get().(*jobDispatch)
	st.walkSpec = w
	st.seq = d.seq.Add(1)
	if need := 2*n + len(d.shards) + 16; cap(st.acks) < need {
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
	st.cancelled.Store(false)
	st.dispatched = resize(st.dispatched, n)
	st.confirmed = resize(st.confirmed, n)
	st.status = resize(st.status, n)
	st.releasedBy = resize(st.releasedBy, n)
	st.wave = st.wave[:0]
	st.ready.reset()
	st.sendNow.reset()
	st.sendq.reset()
	st.deads.reset()
	st.nDone = 0
	st.fences = 0
	st.failing = nil
	return st
}

// release recycles a finished walk's dispatch state (an abandoned one
// is never released: late acks may still arrive on its channel). The
// pool must not keep the plan or the hooks' captures alive.
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
	case s.acks <- nodeAck{seq: s.seq, idx: int(s.idx), flowMods: int(s.flowMods), sent: true, started: s.started, finished: now}:
	default:
		metrics.DispatchAcksDropped.Inc()
	}
}

// nack reports a failed (or skipped) install back to its walk. sent is
// true unless provably nothing hit the wire for this node.
func (d *dispatcher) nack(r shardReq, sent bool, err error) {
	select {
	case r.st.acks <- nodeAck{seq: r.seq, idx: r.idx, sent: sent, err: err}:
	default:
		metrics.DispatchAcksDropped.Inc()
	}
}

// jobDispatch is one walk's pooled dispatch state, owned by the walk's
// event loop (Engine.walk) except where noted.
type jobDispatch struct {
	walkSpec
	seq       uint64
	acks      chan nodeAck
	cancelled atomic.Bool // set on failure; shards skip queued requests

	dispatched []bool // FlowMods possibly reached the switch
	confirmed  []bool // barrier reply received
	status     []byte // ns* per node
	releasedBy []topo.NodeID

	wave    []int       // current release wave (one grouped journal append)
	ready   ring[int32] // release-traversal scratch (see collectWave)
	sendNow ring[int32] // journaled, sendable immediately
	sendq   ring[timed] // journaled, paused until its interval due time
	deads   ring[timed] // in-flight barrier deadlines, FIFO

	nDone   int   // nodes that reached nsDone
	fences  int   // fences still out after a failure
	failing error // first failure; non-nil cancels dispatch
}

// dispatchShard owns a stable subset of switch connections and turns
// ready installs into coalesced writes.
type dispatchShard struct {
	d       *dispatcher
	id      int
	reqs    chan shardReq
	barrier openflow.BarrierRequest // re-stamped per install; encoded at Add time

	// Flush-cycle scratch, reused across cycles:
	order  []uint64 // dpids in first-seen order
	conns  map[uint64]*connBatch
	freeCB []*connBatch
	fences []shardReq
}

// connBatch groups one flush cycle's installs on one connection.
type connBatch struct {
	dp    *datapath
	batch ofconn.Batch
	reqs  []shardReq
	xids  []uint32
}

func (s *dispatchShard) run(ctx context.Context) {
	pprof.Do(ctx, pprof.Labels("tsu_dispatch_shard", strconv.Itoa(s.id)), s.loop)
}

// loop drains the request channel: block for the first request, then
// gather everything already queued, then flush — so installs released
// together coalesce into the same connection writes.
func (s *dispatchShard) loop(ctx context.Context) {
	for {
		var r shardReq
		select {
		case r = <-s.reqs:
		case <-ctx.Done():
			return
		}
		s.gather(r)
	drain:
		for {
			select {
			case r = <-s.reqs:
				s.gather(r)
			default:
				break drain
			}
		}
		s.flush(ctx)
	}
}

// gather files one request into its connection's batch.
func (s *dispatchShard) gather(r shardReq) {
	if r.idx < 0 {
		s.fences = append(s.fences, r)
		return
	}
	if r.st.cancelled.Load() {
		// The walk failed after queueing this install: skip it without
		// touching a wire. sent=false — it cannot have taken effect.
		s.d.nack(r, false, context.Canceled)
		return
	}
	dpid := uint64(r.plan.sw(r.idx))
	cb := s.conns[dpid]
	if cb == nil {
		dp, err := s.d.e.c.datapath(dpid)
		if err != nil {
			s.d.nack(r, true, installErr(r, "sending flowmod", err))
			return
		}
		if n := len(s.freeCB); n > 0 {
			cb = s.freeCB[n-1]
			s.freeCB = s.freeCB[:n-1]
		} else {
			cb = &connBatch{}
		}
		cb.dp = dp
		cb.reqs = cb.reqs[:0]
		s.conns[dpid] = cb
		s.order = append(s.order, dpid)
	}
	cb.reqs = append(cb.reqs, r)
}

// flush writes every gathered connection batch, then bounces fences.
func (s *dispatchShard) flush(ctx context.Context) {
	now := s.d.e.c.clock.Now()
	for _, dpid := range s.order {
		cb := s.conns[dpid]
		delete(s.conns, dpid)
		s.flushConn(cb, now)
		cb.dp = nil
		s.freeCB = append(s.freeCB, cb)
	}
	s.order = s.order[:0]
	for _, f := range s.fences {
		select {
		case f.st.acks <- nodeAck{seq: f.seq, idx: fenceIdx}:
		case <-ctx.Done():
		}
	}
	s.fences = s.fences[:0]
}

// flushConn encodes each install's FlowMods plus one barrier into the
// connection's batch — registering the barrier sink BEFORE the write,
// so a fast reply always finds it — and issues one coalesced write.
// On write error every sink of the batch is deregistered and every
// install nacked sent=true: a partial write may have reached the
// switch, and over-covering the rollback prefix is safe.
func (s *dispatchShard) flushConn(cb *connBatch, now time.Time) {
	dp := cb.dp
	cb.batch.Reset()
	cb.xids = cb.xids[:0]
	k := 0
	for _, r := range cb.reqs {
		mods := r.plan.mods[r.idx]
		mark := cb.batch.Mark()
		if err := s.encodeInstall(cb, dp, mods); err != nil {
			cb.batch.Truncate(mark)
			s.d.nack(r, false, installErr(r, "sending flowmod", err))
			continue
		}
		xid := dp.conn.NextXid()
		s.barrier.SetXid(xid)
		if err := cb.batch.Add(&s.barrier); err != nil {
			cb.batch.Truncate(mark)
			s.d.nack(r, false, installErr(r, "barrier", err))
			continue
		}
		dp.mu.Lock()
		dp.sinks[xid] = barrierSink{
			acks:     r.st.acks,
			seq:      r.seq,
			idx:      int32(r.idx),
			flowMods: int32(len(mods)),
			started:  now,
		}
		dp.mu.Unlock()
		cb.reqs[k] = r
		cb.xids = append(cb.xids, xid)
		k++
	}
	cb.reqs = cb.reqs[:k]
	if k == 0 {
		return
	}
	metrics.DispatchBatchMsgs.Observe(int64(cb.batch.Len()))
	if err := dp.conn.WriteBatch(&cb.batch); err != nil {
		dp.mu.Lock()
		for _, xid := range cb.xids {
			delete(dp.sinks, xid)
		}
		dp.mu.Unlock()
		for _, r := range cb.reqs {
			s.d.nack(r, true, installErr(r, "sending flowmod", err))
		}
	}
}

// encodeInstall appends one node's FlowMods to the batch.
func (s *dispatchShard) encodeInstall(cb *connBatch, dp *datapath, mods []*openflow.FlowMod) error {
	for _, fm := range mods {
		fm.SetXid(dp.conn.NextXid())
		if err := cb.batch.Add(fm); err != nil {
			return err
		}
	}
	return nil
}

// installErr names the install a shard could not send.
func installErr(r shardReq, what string, err error) error {
	return fmt.Errorf("install at %d (layer %d): %s: %w", r.plan.sw(r.idx), r.plan.layers[r.idx], what, err)
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

func (r *ring[T]) reset()   { r.head, r.n = 0, 0 }
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
