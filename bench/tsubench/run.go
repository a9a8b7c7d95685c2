package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/metrics"
	"tsu/internal/switchsim"
	"tsu/internal/trace"
)

// options selects and sizes one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	ops      int  // tests only: total op count; 0 derives it from seconds
	trace    bool // record spans and run the layer probes
}

// setups is how many times a run sets its stack up; setup_s is the
// median. One 0.03–0.3 s set-up reads up to twice another in the same
// process, and the median of 5 still moved by 30 % between runs; the
// median of 21 moves by 12–17 %.
const setups = 21

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	errs      []string // the first few failures, for the operator
	metrics   map[string]float64

	journalFS string // "tmpfs", "disk", or "off"

	// Traced runs only: the spans, and across the recorded ops the
	// smallest and largest ratio of the self-times under the op's
	// latency root to the latency the op reported.
	rec            *recorder
	spanLo, spanHi float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// driver runs one workload's ops against a live stack. op runs the
// e-th op and returns the latency the workload defines for it.
type driver interface {
	op(ctx context.Context, e int, sp ref) (time.Duration, error)
}

// gateEvery is how often (in epochs) the data plane is probed along
// every flow.
const gateEvery = 50

// opTimeout bounds one op; a healthy op takes at most a few hundred
// milliseconds, so hitting it means something is stuck.
const opTimeout = 60 * time.Second

// setUp builds the stack, connects it, installs the old policies and
// runs one op, so that setup_s covers everything up to the first
// answered op — fleet connect, lazily built state, first-request paths.
func setUp(s *spec, o options, totalOps int) (*stack, driver, error) {
	st, err := newStack(s, o.seed)
	if err != nil {
		return nil, nil, err
	}
	var d driver
	if s.restart {
		d, err = newRestartDriver(st, o.seed, totalOps)
	} else {
		d, err = newEpochDriver(st)
	}
	if err != nil {
		st.close()
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := d.op(ctx, 0, ref{}); err != nil {
		st.close()
		return nil, nil, fmt.Errorf("first op: %w", err)
	}
	return st, d, nil
}

// measurement is the raw material of one run's measured phase.
type measurement struct {
	spec *spec
	st   *stack
	d    driver
	rec  *recorder
	seed int64

	ops    int             // measured ops
	opID   []int           // each measured op's span op id
	lat    []time.Duration // the latency each op reported
	wall   []time.Duration // the wall time each op took
	traced []bool          // whether the op was recorded
	before snapshot
	after  snapshot

	// Traced runs only.
	sampler        *sampler
	baseRetainedMB float64 // live heap when the measured phase started
}

// traceSlices is how many equal slices a traced run cuts its measured
// ops into; spans are recorded on every other one, so one run yields
// both sides of trace.overhead_ratio.
const traceSlices = 20

// runWorkload is one benchmark run: set up (several times, for a
// median), then a fixed number of ops from one closed-loop client, the
// first 5 % of which are warm-up.
func runWorkload(o options) (*result, error) {
	s, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	total := o.ops
	if total == 0 {
		total = s.ops(o.seconds)
	}
	warm := warmup(total)
	m := &measurement{spec: s, seed: o.seed, ops: total - warm}

	var setupsS []float64
	for i := 0; i < setups; i++ {
		if m.st != nil {
			m.st.close()
		}
		t := time.Now()
		if m.st, m.d, err = setUp(s, o, total+1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupsS = append(setupsS, time.Since(t).Seconds())
	}
	st := m.st
	defer st.close()

	res := &result{metrics: map[string]float64{"setup_s": median(setupsS)}, journalFS: st.journalKind}
	if o.trace {
		m.rec = newRecorder(m.ops * (2*s.flows + 8))
		res.rec = m.rec
	}

	var stopProber func() trace.Stats
	if s.prober {
		f := &st.flows[0]
		p := trace.NewProber(st.fabric, trace.Config{
			Ingress: f.straight.Src(), NWDst: f.nwDstInt, Waypoint: f.waypoint,
			Interval: time.Millisecond,
		})
		stopProber = p.Start(context.Background())
	}

	// e is the op's index, and its span op id; e = 0 ran during set-up.
	runOp := func(e int, on bool) (lat, wall time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		t := time.Now()
		sp := m.rec.root("op", e, on)
		lat, err := m.d.op(ctx, e, sp)
		sp.end()
		wall = time.Since(t)
		res.attempted++
		if err != nil {
			res.fail("op %d: %v", e, err)
		}
		return lat, wall
	}
	for e := 1; e <= warm; e++ {
		runOp(e, false)
	}
	if o.trace {
		m.baseRetainedMB = liveHeapMB()
		m.sampler = startSampler(st)
	}
	m.before = takeSnapshot(st)
	for i := 0; i < m.ops; i++ {
		on := m.rec != nil && (i*traceSlices/m.ops)%2 == 0
		l, w := runOp(warm+1+i, on)
		m.opID = append(m.opID, warm+1+i)
		m.lat = append(m.lat, l)
		m.wall = append(m.wall, w)
		m.traced = append(m.traced, on)
	}
	m.after = takeSnapshot(st)
	if m.sampler != nil {
		m.sampler.halt()
	}

	// Whatever the run's length, it ends with every flow probed.
	if err := st.gate(); err != nil {
		res.fail("final gate: %v", err)
	}
	if stopProber != nil {
		ps := stopProber()
		if ps.Bypasses != 0 || ps.Drops != 0 {
			res.fail("prober: %d waypoint bypasses, %d drops in %d probes (first: %+v)",
				ps.Bypasses, ps.Drops, ps.Sent, ps.FirstViolation)
		}
	}
	if h, err := st.ctl.client.Healthz(context.Background()); err != nil {
		res.fail("healthz: %v", err)
	} else if h.Dispatch != nil && h.Dispatch.AcksDropped != 0 {
		res.fail("dispatch dropped %d acks", h.Dispatch.AcksDropped)
	}

	ops := float64(m.ops)
	sorted := sortedMs(m.lat)
	res.metrics["ops_per_s"] = ops / m.after.at.Sub(m.before.at).Seconds()
	res.metrics["op_p50_ms"] = percentile(sorted, 0.50)
	res.metrics["op_p95_ms"] = percentile(sorted, 0.95)
	res.metrics["alloc_kb_per_op"] = float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc) / 1024 / ops

	if o.trace {
		layerMetrics(res, m) // the probes need the fleet; a traced run reports no retained_mb
		return res, nil
	}
	// What the controller holds, not the fixture: with the switches'
	// connections closed. With them open the LoopGroup's timer heap keeps
	// whichever superseded connections (64 KB of read buffer each) its
	// slack happens to reference, and restart-recover read 28–34 MB from
	// run to run; closed, it reads 11.3 MB every time.
	st.stopFleet()
	res.metrics["retained_mb"] = liveHeapMB()
	return res, nil
}

// liveHeapMB is the live heap once the garbage is gone: two collections
// free what finalizers (connections, files) were holding, and what
// goroutines still winding down referenced goes a round or two later,
// so collect until the heap stops shrinking.
func liveHeapMB() float64 {
	var m runtime.MemStats
	prev := math.Inf(1)
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		cur := float64(m.HeapAlloc) / (1 << 20)
		if cur >= prev*0.998 {
			break
		}
		prev = cur
		time.Sleep(150 * time.Millisecond)
	}
	return float64(m.HeapAlloc) / (1 << 20)
}

// snapshot is the process and stack state at one edge of the measured
// phase: clocks, heap, and the counters the layer table takes deltas
// of.
type snapshot struct {
	at    time.Time
	cpu   time.Duration // process user + system
	gcCPU float64       // seconds of CPU the collector has used
	mem   runtime.MemStats

	httpCalls     int64
	batchedWrites int64 // coalesced connection writes, and the messages in them
	batchedMsgs   int64
	journalWaves  int64 // grouped dispatched records, and the nodes in them
	journalNodes  int64
	acksDropped   int64
	journalRecs   int64 // records appended to the workload's journal, and their bytes
	journalBytes  int64
}

func takeSnapshot(st *stack) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	s.httpCalls = st.calls.Load()
	s.batchedWrites = metrics.DispatchBatchMsgs.Count()
	s.batchedMsgs = metrics.DispatchBatchMsgs.Sum()
	s.journalWaves = metrics.JournalBatchWidth.Count()
	s.journalNodes = metrics.JournalBatchWidth.Sum()
	s.acksDropped = metrics.DispatchAcksDropped.Value()
	s.journalRecs = st.journalRecs.Load()
	s.journalBytes = st.journalWritten()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.at = time.Now()
	return s
}

// epochDriver drives the three steady-state workloads: every op moves
// every flow to its other path in one batch.
type epochDriver struct {
	st *stack
}

func newEpochDriver(st *stack) (*epochDriver, error) {
	if err := st.startController(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := st.installOldPolicies(ctx); err != nil {
		return nil, err
	}
	return &epochDriver{st: st}, nil
}

func (d *epochDriver) op(ctx context.Context, e int, sp ref) (time.Duration, error) {
	c := d.st.ctl.client
	states := d.st.states
	req := batch(d.st.spec, d.st.flows, states)
	start := time.Now()
	if d.st.spec.verifyFirst {
		v := sp.child("client.verify")
		vr, err := c.Verify(ctx, api.VerifyRequest{Updates: req.Updates})
		v.end()
		if err != nil {
			return 0, fmt.Errorf("verify: %w", err)
		}
		if !vr.OK {
			return 0, fmt.Errorf("verify: plan rejected: %+v", vr.Results)
		}
	}
	if err := submitAndWait(ctx, c, req, sp); err != nil {
		return 0, err
	}
	l := time.Since(start)
	for i := range states {
		states[i] = 1 - states[i]
	}
	if (e+1)%gateEvery == 0 {
		return l, d.st.gate()
	}
	return l, nil
}

// gate probes each flow and checks it rides, in full, the path its
// state says.
func (st *stack) gate() error {
	for i := range st.flows {
		if got, err := probeFlow(st.fabric, &st.flows[i]); err != nil {
			return err
		} else if got != st.states[i] {
			return fmt.Errorf("flow %s rides path %d, want %d", st.flows[i].nwDst, got, st.states[i])
		}
	}
	return nil
}

// submitAndWait is the front-door op body: one batch, then a Wait per
// accepted job, in order. Every job must end done.
func submitAndWait(ctx context.Context, c *client.Client, req api.BatchUpdateRequest, sp ref) error {
	s := sp.child("client.submit")
	resp, err := c.SubmitBatch(ctx, req)
	s.end()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for _, u := range resp.Updates {
		w := sp.child("client.wait")
		js, err := c.Wait(ctx, u.ID)
		w.end()
		if err != nil {
			return fmt.Errorf("wait %d: %w", u.ID, err)
		}
		if js.State != "done" {
			return fmt.Errorf("job %d ended %s: %s", js.ID, js.State, js.Error)
		}
	}
	return nil
}

// probeFlow injects one probe at the flow's source and reports which
// of its two paths delivered it in full (0 straight, 1 detour).
func probeFlow(f *switchsim.Fabric, fl *flow) (int, error) {
	res := f.Inject(fl.straight.Src(), fl.nwDstInt, 4*len(fl.detour))
	if res.Outcome != switchsim.ProbeDelivered {
		return 0, fmt.Errorf("flow %s: probe %s after %v", fl.nwDst, res.Outcome, res.Visited)
	}
	switch {
	case res.Visited.Equal(fl.straight):
		return 0, nil
	case res.Visited.Equal(fl.detour):
		return 1, nil
	}
	return 0, fmt.Errorf("flow %s: probe took %v, neither the old nor the new path in full", fl.nwDst, res.Visited)
}

// sampler reads, every 10 ms of the measured phase, how many jobs the
// engine is running and how many goroutines the process has.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	runningSum     float64
	n              int
	goroutinesPeak int
}

func startSampler(st *stack) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
				if c := st.live.Load(); c != nil {
					sm.runningSum += float64(c.Engine().RunningCount())
					sm.n++
				}
				if g := runtime.NumGoroutine(); g > sm.goroutinesPeak {
					sm.goroutinesPeak = g
				}
			}
		}
	}()
	return sm
}

// halt stops the sampler; its fields are safe to read afterwards.
func (sm *sampler) halt() {
	close(sm.stop)
	<-sm.done
}
