package metrics

import "sync/atomic"

// Gauge is a level indicator, safe for concurrent use: unlike a Counter
// it goes down as well as up. The controller's dispatcher tracks its
// ready and in-flight installs with gauges; the /v1/healthz probe reads
// them live.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// AtomicHist is a concurrency-safe size summary — count, sum and
// maximum — the cheap shape for "how wide are the coalesced batches"
// style questions asked from many goroutines at once. Observe is a
// handful of atomic adds; there is no lock and no allocation. The
// experiment tables, one goroutine each, use Histogram instead.
type AtomicHist struct {
	n, sum atomic.Int64
	max    atomic.Int64
}

// Observe records one value (negatives clamp to zero).
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *AtomicHist) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *AtomicHist) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (zero when empty).
func (h *AtomicHist) Max() int64 { return h.max.Load() }

// Mean returns the average observed value (zero when empty).
func (h *AtomicHist) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Dispatch-path instruments, fed by the controller's dispatch path and
// surfaced on /v1/healthz:
var (
	// DispatchBatchMsgs sizes the southbound writes: OpenFlow messages
	// (FlowMods plus barriers) per buffered connection write.
	DispatchBatchMsgs AtomicHist

	// JournalBatchWidth sizes the grouped dispatched-delta appends:
	// plan nodes covered per write-ahead journal record.
	JournalBatchWidth AtomicHist

	// DispatchAcksDropped counts install acknowledgements dropped on a
	// full ack channel — a stale reply outliving its job, or severe
	// backpressure; a dropped live ack surfaces as a barrier timeout.
	DispatchAcksDropped Counter
)
