package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tsu/internal/api"
	"tsu/internal/controller"
	"tsu/internal/core"
	"tsu/internal/explore"
	"tsu/internal/journal"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/switchsim"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// layerMetrics fills in the per-layer table of a traced run: spans and
// counters from the measured phase first, then direct probes of each
// layer on the workload's own flows, run on the still-live stack. A
// probe that cannot run fails the run rather than reporting a guess.
func layerMetrics(res *result, m *measurement) {
	lm := res.metrics
	for _, d := range perLayer {
		lm[d.name] = 0 // what a metric that does not apply to the workload reads
	}
	spanMetrics(lm, m)
	counterMetrics(lm, m, liveHeapMB())
	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()
	for _, p := range []struct {
		name string
		run  func(context.Context, map[string]float64, *measurement) error
	}{
		{"front-door", probeFrontDoor},
		{"core", probeCore},
		{"journal", probeJournal},
		{"wire", probeWire},
		{"switch", probeSwitch},
	} {
		if err := p.run(ctx, lm, m); err != nil {
			res.fail("%s probe: %v", p.name, err)
		}
	}
	res.spanLo, res.spanHi = spanCheck(m)
}

// latencyRoot names the span whose subtree is the op's latency: the
// whole op, except in restart-recover, where latency runs from the
// crash on.
func latencyRoot(s *spec) string {
	if s.restart {
		return "cycle.recovery"
	}
	return "op"
}

// spanMetrics derives the client and recovery numbers and the tracing
// overhead from what the measured phase recorded.
func spanMetrics(lm map[string]float64, m *measurement) {
	spans := m.rec.spans
	var submits []float64
	waits := make(map[int]float64) // per op: the sum of its waits
	for _, s := range spans {
		switch s.Name {
		case "client.submit":
			submits = append(submits, float64(s.End-s.Start)/1e6)
		case "client.wait":
			waits[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	lm["client.submit_ms"] = median(submits)
	perOp := make([]float64, 0, len(waits))
	for _, w := range waits {
		perOp = append(perOp, w)
	}
	lm["client.wait_ms"] = median(perOp)

	// A closed-loop client's rate over a set of its ops is their count
	// over the wall time they took.
	var n [2]int
	var t [2]time.Duration
	for i, w := range m.wall {
		k := 0
		if m.traced[i] {
			k = 1
		}
		n[k]++
		t[k] += w
	}
	if n[0] > 0 && n[1] > 0 {
		lm["trace.overhead_ratio"] = (float64(n[1]) / t[1].Seconds()) / (float64(n[0]) / t[0].Seconds())
	}

	if d, ok := m.d.(*restartDriver); ok {
		cycles := d.cycles[len(d.cycles)-m.ops:]
		var rc, rv, rs []float64
		var total controller.RecoveryStats
		for _, c := range cycles {
			rc = append(rc, ms(c.reconnect))
			rv = append(rv, ms(c.recover))
			rs = append(rs, ms(c.resume))
			total.Adopted += c.stats.Adopted
			total.RolledBack += c.stats.RolledBack
			total.Requeued += c.stats.Requeued
		}
		lm["recover.reconnect_ms"] = median(rc)
		lm["recover.recover_call_ms"] = median(rv)
		lm["recover.resume_ms"] = median(rs)
		if all := float64(total.Recovered()); all > 0 {
			lm["recover.adopted_ratio"] = float64(total.Adopted) / all
			lm["recover.rolledback_ratio"] = float64(total.RolledBack) / all
			lm["recover.requeued_ratio"] = float64(total.Requeued) / all
		}
	}
}

// spanCheck compares, for every recorded op, the self-times of the
// spans under its latency root with the latency the op reported, and
// returns the smallest and largest ratio.
func spanCheck(m *measurement) (lo, hi float64) {
	spans := m.rec.spans
	self := selfTimes(spans)
	root := latencyRoot(m.spec)
	sum := make(map[int]time.Duration) // per op
	under := make([]bool, len(spans))  // inside the latency root's subtree
	for i, s := range spans {
		// A parent precedes its children, so one pass settles the tree.
		under[i] = s.Name == root || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			sum[s.Op] += self[i]
		}
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, l := range m.lat {
		if !m.traced[i] || l == 0 {
			continue
		}
		r := float64(sum[m.opID[i]]) / float64(l)
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	return lo, hi
}

// counterMetrics takes the deltas of the counters read at both edges
// of the measured phase.
func counterMetrics(lm map[string]float64, m *measurement, retainedMB float64) {
	b, a := &m.before, &m.after
	ops := float64(m.ops)
	jobs := ops * float64(m.spec.flows)
	if m.spec.restart {
		jobs *= 2 // a clean epoch and a killed one
	}
	lm["client.http_calls_per_op"] = float64(a.httpCalls-b.httpCalls) / ops
	if w := a.batchedWrites - b.batchedWrites; w > 0 {
		lm["dispatch.batch_mean_msgs"] = float64(a.batchedMsgs-b.batchedMsgs) / float64(w)
		lm["dispatch.batched_writes_per_op"] = float64(w) / ops
	}
	if w := a.journalWaves - b.journalWaves; w > 0 {
		lm["dispatch.journal_batch_mean"] = float64(a.journalNodes-b.journalNodes) / float64(w)
	}
	lm["dispatch.acks_dropped"] = float64(a.acksDropped - b.acksDropped)
	lm["journal.records_per_update"] = float64(a.journalRecs-b.journalRecs) / jobs
	lm["journal.bytes_per_update"] = float64(a.journalBytes-b.journalBytes) / jobs
	lm["proc.cpu_ms_per_op"] = ms(a.cpu-b.cpu) / ops
	if cpu := (a.cpu - b.cpu).Seconds(); cpu > 0 {
		lm["proc.gc_cpu_fraction"] = (a.gcCPU - b.gcCPU) / cpu
	}
	lm["proc.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	lm["proc.goroutines_peak"] = float64(m.sampler.goroutinesPeak)
	if m.sampler.n > 0 {
		lm["engine.running_mean"] = m.sampler.runningSum / float64(m.sampler.n)
	}
	lm["engine.retained_kb_per_job"] = (retainedMB - m.baseRetainedMB) * 1024 / jobs
}

// probeEpochs is how many front-door/direct epoch pairs the front-door
// probe runs.
const probeEpochs = 30

// probeFrontDoor runs the workload's batch alternately through the client
// and straight into the engine, so the difference is what REST, JSON
// and the watch streams cost; the direct side also yields the engine's
// own admit, queue, execute and install times.
func probeFrontDoor(ctx context.Context, lm map[string]float64, m *measurement) error {
	st, s := m.st, m.spec
	flows, states := st.flows, st.states
	flip := func() {
		for i := range states {
			states[i] = 1 - states[i]
		}
	}
	var front, direct, dry, admit, queue, exec, install, msgs []float64
	for i := 0; i < probeEpochs; i++ {
		req := batch(s, flows, states)
		t := time.Now()
		dr := req
		dr.DryRun = true
		if _, err := st.ctl.client.SubmitBatch(ctx, dr); err != nil {
			return fmt.Errorf("dry run: %w", err)
		}
		dry = append(dry, ms(time.Since(t)))

		t = time.Now()
		if err := submitAndWait(ctx, st.ctl.client, req, ref{}); err != nil {
			return err
		}
		front = append(front, ms(time.Since(t)))
		flip()

		t = time.Now()
		jobs := make([]*controller.Job, len(flows))
		submitted := make([]time.Time, len(flows))
		for k := range flows {
			p, err := planFlow(s, &flows[k], states[k])
			if err != nil {
				return err
			}
			match := openflow.ExactNWDst(net.ParseIP(flows[k].nwDst))
			t1 := time.Now()
			jobs[k], err = st.ctl.ctrl.Engine().SubmitPlan(p.in, p.plan, match, controller.SubmitOptions{})
			if err != nil {
				return fmt.Errorf("direct submit: %w", err)
			}
			submitted[k] = time.Now()
			admit = append(admit, us(submitted[k].Sub(t1)))
		}
		returned := make([]time.Time, len(jobs))
		var wg sync.WaitGroup
		for k, j := range jobs {
			wg.Add(1)
			go func(k int, j *controller.Job) {
				defer wg.Done()
				_ = j.Wait(ctx) //nolint:errcheck // the state check below reports failures
				returned[k] = time.Now()
			}(k, j)
		}
		wg.Wait()
		direct = append(direct, ms(time.Since(t)))
		flip()
		for k, j := range jobs {
			if j.State() != controller.JobDone {
				return fmt.Errorf("direct job %d ended %v: %v", j.ID, j.State(), j.Err())
			}
			queue = append(queue, ms(returned[k].Sub(submitted[k])-j.TotalDuration()))
			exec = append(exec, ms(j.TotalDuration()))
			for _, it := range j.Installs() {
				install = append(install, us(it.Duration()))
			}
			total, _ := j.Messages()
			msgs = append(msgs, float64(total.Ctrl)/float64(j.NumInstalls()))
		}
	}
	lm["rest.overhead_ms"] = median(front) - median(direct)
	lm["rest.dryrun_ms"] = median(dry)
	lm["engine.admit_us"] = median(admit)
	lm["engine.queue_ms"] = median(queue)
	lm["engine.exec_ms"] = median(exec)
	lm["engine.install_us"] = median(install)
	lm["ofconn.msgs_per_install"] = mean(msgs)
	return nil
}

// planned is one reroute as the REST handler plans it.
type planned struct {
	in    *core.Instance
	sched *core.Schedule
	plan  *core.Plan
}

// planFlow plans the reroute of one flow the way the REST handler
// does: instance, schedule by name, then the layered or sparse plan.
func planFlow(s *spec, f *flow, from int) (planned, error) {
	in, err := core.NewInstance(f.path(from), f.path(1-from), f.waypoint)
	if err != nil {
		return planned{}, err
	}
	sched, err := core.ScheduleByName(in, s.algorithm, 0)
	if err != nil {
		return planned{}, err
	}
	return planned{in, sched, s.planOf(in, sched)}, nil
}

// planOf derives the workload's plan shape from a schedule.
func (s *spec) planOf(in *core.Instance, sched *core.Schedule) *core.Plan {
	if s.plan == "sparse" {
		return core.SparsePlan(in, sched)
	}
	return core.PlanFromSchedule(sched)
}

// timeEach runs f over n items reps times and returns the median
// per-item time.
func timeEach(n, reps int, f func(i int)) time.Duration {
	var per []float64
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			t := time.Now()
			f(i)
			per = append(per, float64(time.Since(t)))
		}
	}
	return time.Duration(median(per))
}

// probeCore times the planning and checking layers on the workload's
// reroutes, both directions.
func probeCore(_ context.Context, lm map[string]float64, m *measurement) error {
	s := m.spec
	flows := m.st.flows
	var insts []planned
	for i := range flows {
		for from := 0; from < 2; from++ {
			p, err := planFlow(s, &flows[i], from)
			if err != nil {
				return err
			}
			insts = append(insts, p)
		}
	}
	const reps = 5
	n := len(insts)
	lm["core.schedule_us"] = us(timeEach(n, reps, func(i int) {
		_, _ = core.ScheduleByName(insts[i].in, s.algorithm, 0) //nolint:errcheck // succeeded above
	}))
	lm["core.plan_us"] = us(timeEach(n, reps, func(i int) {
		s.planOf(insts[i].in, insts[i].sched)
	}))
	var depth, nodes []float64
	for _, x := range insts {
		depth = append(depth, float64(x.plan.Depth()))
		nodes = append(nodes, float64(x.plan.NumNodes()))
	}
	lm["core.plan_depth"] = mean(depth)
	lm["core.plan_nodes"] = mean(nodes)

	var bad error
	lm["verify.plan_us"] = us(timeEach(n, reps, func(i int) {
		x := insts[i]
		if r := verify.Plan(x.in, x.plan, x.plan.Guarantees, verify.Options{Seed: m.seed}); !r.OK() {
			bad = fmt.Errorf("verify rejects the workload's plan: %s", r)
		}
	}))
	lm["explore.plan_us"] = us(timeEach(n, 1, func(i int) {
		x := insts[i]
		r, err := explore.Plan(x.in, x.plan, explore.Options{Seed: m.seed})
		if err != nil {
			bad = err
		} else if !r.OK() {
			bad = fmt.Errorf("explorer breaks the workload's plan on flow %d", i/2)
		}
	}))
	// Synthesis is the slow one (CEGIS over the explorer, seconds on a
	// 34-hop reroute): one instance is enough for a number.
	lm["synth.us"] = us(timeEach(1, 1, func(i int) {
		x := insts[i]
		if _, _, err := synth.Synthesize(x.in, synth.DefaultProps(x.in, 0), synth.Options{Seed: m.seed}); err != nil {
			bad = fmt.Errorf("synth: %w", err)
		}
	}))
	return bad
}

// updateRecords returns the journal records one reroute writes: admit,
// a grouped dispatch per layer, a confirm per node, terminal.
func updateRecords(s *spec, f *flow, from, job int) ([]journal.Record, error) {
	p, err := planFlow(s, f, from)
	if err != nil {
		return nil, err
	}
	in, plan := p.in, p.plan
	recs := []journal.Record{{Kind: journal.KindAdmit, Job: job, Admit: &journal.Admit{
		Algorithm: s.algorithm, Recoverable: true,
		Old: api.FromPath(in.Old), New: api.FromPath(in.New), Waypoint: uint64(in.Waypoint),
		NWDst: f.nwDstInt, Props: uint64(plan.Guarantees), Plan: core.EncodePlan(plan),
	}}}
	layers := plan.NodeLayers()
	for l := 0; l < plan.Depth(); l++ {
		var wave []int
		for i, nl := range layers {
			if nl == l {
				wave = append(wave, i)
			}
		}
		recs = append(recs, journal.Record{Kind: journal.KindDispatchedBatch, Job: job, Nodes: wave})
		for _, i := range wave {
			recs = append(recs, journal.Record{Kind: journal.KindConfirmed, Job: job, Node: i})
		}
	}
	return append(recs, journal.Record{Kind: journal.KindTerminal, Job: job, Done: true}), nil
}

// probeJournal times the journal's public operations on the records
// the workload's own reroutes write, on tmpfs and — for the sync alone
// — on the checkout's disk.
func probeJournal(_ context.Context, lm map[string]float64, m *measurement) error {
	s := m.spec
	flows := m.st.flows
	dir, _, err := journalFS()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	path := filepath.Join(dir, "probe.wal")
	jl, err := journal.Open(path)
	if err != nil {
		return err
	}
	defer func() { jl.Close() }() //nolint:errcheck // probe teardown

	const updates = 200
	var admits, deltas []float64
	var live []journal.Record // the last batch's worth, what a compaction keeps
	for u := 0; u < updates; u++ {
		recs, err := updateRecords(s, &flows[u%len(flows)], u/len(flows)%2, u+1)
		if err != nil {
			return err
		}
		for _, r := range recs {
			t := time.Now()
			if err := jl.Append(r); err != nil {
				return err
			}
			switch r.Kind {
			case journal.KindAdmit:
				admits = append(admits, us(time.Since(t)))
			case journal.KindConfirmed:
				deltas = append(deltas, us(time.Since(t)))
			}
		}
		if u >= updates-len(flows) {
			live = append(live, recs[:len(recs)-1]...)
		}
	}
	lm["journal.admit_append_us"] = median(admits)
	lm["journal.append_us"] = mean(deltas) // the mean keeps the every-32nd sync in

	delta := journal.Record{Kind: journal.KindConfirmed, Job: updates, Node: 0}
	syncUs := func(j *journal.Journal, n int) (float64, error) {
		var out []float64
		for i := 0; i < n; i++ {
			if err := j.Append(delta); err != nil {
				return 0, err
			}
			t := time.Now()
			if err := j.Sync(); err != nil {
				return 0, err
			}
			out = append(out, us(time.Since(t)))
		}
		return median(out), nil
	}
	if lm["journal.sync_us_tmpfs"], err = syncUs(jl, 50); err != nil {
		return err
	}

	var opens, compacts []float64
	for i := 0; i < 5; i++ {
		if err := jl.Close(); err != nil {
			return err
		}
		t := time.Now()
		if jl, err = journal.Open(path); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t)))
	}
	lm["journal.open_ms"] = median(opens)
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := jl.Compact(live); err != nil {
			return err
		}
		compacts = append(compacts, ms(time.Since(t)))
	}
	lm["journal.compact_ms"] = median(compacts)

	diskPath := filepath.Join(outDir(), fmt.Sprintf("sync-probe-%d.wal", os.Getpid()))
	defer os.Remove(diskPath) //nolint:errcheck // best-effort cleanup
	jd, err := journal.Open(diskPath)
	if err != nil {
		return err
	}
	defer jd.Close() //nolint:errcheck // probe teardown
	lm["journal.sync_us_disk"], err = syncUs(jd, 20)
	return err
}

// probeWire times the OpenFlow codec on one of the workload's FlowMods
// and a coalesced write of the workload's typical width over loopback.
func probeWire(_ context.Context, lm map[string]float64, m *measurement) error {
	f := &m.st.flows[0]
	match := openflow.ExactNWDst(net.ParseIP(f.nwDst))
	fm, err := m.st.ctl.ctrl.PathFlowMod(f.detour[0], f.detour[1], match, openflow.FlowModify)
	if err != nil {
		return err
	}
	const n = 20000
	var buf []byte
	t := time.Now()
	for i := 0; i < n; i++ {
		if buf, err = openflow.AppendTo(buf[:0], fm); err != nil {
			return err
		}
	}
	lm["openflow.flowmod_encode_ns"] = float64(time.Since(t)) / n
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err = openflow.Decode(buf); err != nil {
			return err
		}
	}
	lm["openflow.flowmod_decode_ns"] = float64(time.Since(t)) / n

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // probe teardown
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if nc, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, nc) //nolint:errcheck // drains until the writer closes
			nc.Close()              //nolint:errcheck // probe teardown
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	conn := ofconn.New(nc)
	width := int(math.Round(lm["dispatch.batch_mean_msgs"]))
	if width < 2 {
		width = 2
	}
	if width > 32 {
		width = 32
	}
	var b ofconn.Batch
	barrier := &openflow.BarrierRequest{}
	const writes = 2000
	t = time.Now()
	for i := 0; i < writes && err == nil; i++ {
		for k := 0; k < width && err == nil; k++ {
			if k%2 == 0 {
				err = b.Add(fm)
			} else {
				err = b.Add(barrier)
			}
		}
		if err == nil {
			err = conn.WriteBatch(&b)
		}
	}
	lm["ofconn.writebatch_us"] = us(time.Since(t)) / writes
	conn.Close() //nolint:errcheck // lets the drain goroutine finish
	<-drained
	return err
}

// probeSwitch puts a bare ofconn peer in the controller's place in
// front of one switch configured like the workload's: how long a
// connect takes, and how long a FlowMod plus barrier takes to come
// back — the part of every install that is fixture, not controller.
func probeSwitch(ctx context.Context, lm map[string]float64, m *measurement) error {
	s := m.spec
	g := topo.Grid(1, 2)
	sw, err := switchsim.NewSwitch(switchsim.NewFabric(g), switchsim.Config{
		Node: 1, InstallLatency: s.install, CtrlLatency: s.ctrl,
		Source: netem.NewSource(m.seed),
	})
	if err != nil {
		return err
	}
	defer sw.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // probe teardown
	peers := make(chan *ofconn.Conn)
	go func() {
		defer close(peers)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := ofconn.New(nc)
			if _, err := ofconn.HandshakeController(c); err != nil {
				c.Close() //nolint:errcheck // already failing
				return
			}
			peers <- c
		}
	}()

	var connects []float64
	var peer *ofconn.Conn
	for i := 0; i < 10; i++ {
		if peer != nil {
			sw.Stop()
			peer.Close() //nolint:errcheck // replaced below
		}
		t := time.Now()
		if err := sw.Connect(ctx, ln.Addr().String()); err != nil {
			return err
		}
		connects = append(connects, ms(time.Since(t)))
		var ok bool
		if peer, ok = <-peers; !ok {
			return fmt.Errorf("controller-side handshake failed")
		}
	}
	defer peer.Close() //nolint:errcheck // probe teardown
	lm["switchsim.connect_ms"] = median(connects)

	fm := &openflow.FlowMod{
		Match: openflow.ExactNWDst(net.IPv4(10, 9, 9, 9)), Command: openflow.FlowAdd,
		Priority: 100, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 1}},
	}
	var b ofconn.Batch
	var rtts []float64
	for i := 0; i < 200; i++ {
		req := &openflow.BarrierRequest{}
		req.SetXid(peer.NextXid())
		if err := b.Add(fm); err != nil {
			return err
		}
		if err := b.Add(req); err != nil {
			return err
		}
		t := time.Now()
		if err := peer.WriteBatch(&b); err != nil {
			return err
		}
		for {
			msg, err := peer.ReadMessage()
			if err != nil {
				return err
			}
			if r, ok := msg.(*openflow.BarrierReply); ok && r.Xid() == req.Xid() {
				break
			}
		}
		rtts = append(rtts, us(time.Since(t)))
	}
	lm["switchsim.barrier_rtt_us"] = median(rtts)
	return nil
}
