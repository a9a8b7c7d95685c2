package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"tsu/internal/api"
	"tsu/internal/controller"
	"tsu/internal/journal"
)

// restartDriver drives restart-recover. One op is one crash-restart
// cycle: a clean epoch completes through the front door, a second
// epoch is killed the instant its k-th dispatched node hits the
// journal (the journal stops taking records and the engine loses its
// context at once, as in internal/controller's crash-restart suite),
// and a fresh controller reopens the journal, takes the fleet back and
// recovers. The op's latency runs from the crash to the last recovered
// job going terminal.
type restartDriver struct {
	st         *stack
	boundaries []int // per cycle: dispatched-node count to die at

	// Crash arming, read by the journal hook on engine goroutines.
	boundary   atomic.Int32 // 0 = disarmed
	dispatched atomic.Int32
	born       time.Time    // monotonic base for crashedAt
	crashedAt  atomic.Int64 // when the crash fired, as nanoseconds since born
	crashed    chan struct{}

	cycles []cycleStats // one per op, in order
}

// cycleStats is what one recovery did and how long its steps took.
type cycleStats struct {
	stats                      controller.RecoveryStats
	reconnect, recover, resume time.Duration
}

func newRestartDriver(st *stack, seed int64, cycles int) (*restartDriver, error) {
	d := &restartDriver{
		st:         st,
		boundaries: crashBoundaries(st.spec, seed, cycles),
		born:       time.Now(),
		crashed:    make(chan struct{}, 1),
	}
	st.crashHook = d.onAppend
	if err := st.startController(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := st.installOldPolicies(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// onAppend counts dispatched nodes — a grouped record counts for its
// whole width, there is no boundary inside it — and kills the
// controller when the armed boundary is crossed.
func (d *restartDriver) onAppend(rec journal.Record, kill func()) {
	var w int32
	switch rec.Kind {
	case journal.KindDispatched:
		w = 1
	case journal.KindDispatchedBatch:
		w = int32(len(rec.Nodes))
	default:
		return
	}
	b := d.boundary.Load()
	if b == 0 {
		return
	}
	if now := d.dispatched.Add(w); now >= b && now-w < b {
		d.crashedAt.Store(int64(time.Since(d.born)))
		kill()
		d.crashed <- struct{}{}
	}
}

func (d *restartDriver) op(ctx context.Context, e int, sp ref) (time.Duration, error) {
	st, s := d.st, d.st.spec

	// A clean epoch on the live controller.
	clean := sp.child("cycle.clean_epoch")
	err := submitAndWait(ctx, st.ctl.client, batch(s, st.flows, st.states), clean)
	clean.end()
	if err != nil {
		return 0, fmt.Errorf("clean epoch: %w", err)
	}
	for i := range st.states {
		st.states[i] = 1 - st.states[i]
	}

	// The killed epoch: armed, submitted, dead at the boundary.
	killed := sp.child("cycle.killed_epoch")
	d.dispatched.Store(0)
	d.boundary.Store(int32(d.boundaries[e%len(d.boundaries)]))
	resp, err := st.ctl.client.SubmitBatch(ctx, batch(s, st.flows, st.states))
	if err == nil {
		select {
		case <-d.crashed:
		case <-ctx.Done():
			err = fmt.Errorf("boundary never reached: %w", ctx.Err())
		}
	}
	d.boundary.Store(0)
	killed.end()
	if err != nil {
		return 0, fmt.Errorf("killed epoch: %w", err)
	}
	crashAt := d.born.Add(time.Duration(d.crashedAt.Load()))

	rec := sp.childAt("cycle.recovery", crashAt)
	cs, err := d.recover(ctx, rec, resp.Updates)
	rec.end()
	l := time.Since(crashAt)
	d.cycles = append(d.cycles, cs)

	// Where each flow ended is where the next cycle starts from: an
	// adopted job finished its reroute, a rolled-back one undid it.
	for i := range st.flows {
		got, perr := probeFlow(st.fabric, &st.flows[i])
		if perr != nil && err == nil {
			err = perr
		}
		st.states[i] = got
	}
	return l, err
}

// recover takes the stack from a dead controller to every journaled
// job terminal on a new one, and checks the recovery invariants:
// nothing unrecoverable, and every job of the killed epoch — finished
// before the crash, adopted, requeued or rolled back — known to the
// new controller and done or failed with a verified rollback.
func (d *restartDriver) recover(ctx context.Context, sp ref, killed []api.AcceptedUpdate) (cycleStats, error) {
	st := d.st
	var cs cycleStats

	// The dead controller's goroutines wind down and every switch drops
	// its dead session before anything redials, as a dead process's
	// would be gone: no stale write can land after the new controller's
	// query.
	down := sp.child("recover.winddown")
	for _, j := range st.ctl.ctrl.Engine().Jobs() {
		_ = j.Wait(ctx) //nolint:errcheck // killed jobs fail; that is the point
	}
	for _, sw := range st.switches {
		sw.Stop()
	}
	st.stopController()
	down.end()

	rc := sp.child("recover.reconnect")
	t := time.Now()
	err := st.startController()
	rc.end()
	cs.reconnect = time.Since(t)
	if err != nil {
		return cs, fmt.Errorf("restart: %w", err)
	}

	eng := st.ctl.ctrl.Engine()
	rv := sp.child("recover.recover_call")
	t = time.Now()
	cs.stats, err = eng.Recover(ctx)
	rv.end()
	cs.recover = time.Since(t)
	if err != nil {
		return cs, fmt.Errorf("recover: %w", err)
	}
	st.ctl.journalBase = st.ctl.journal.Size() // Recover compacted it

	rs := sp.child("recover.resume")
	t = time.Now()
	for _, j := range eng.Jobs() {
		_ = j.Wait(ctx) //nolint:errcheck // a verified rollback is a legal outcome, checked below
	}
	rs.end()
	cs.resume = time.Since(t)

	if cs.stats.Failed != 0 || cs.stats.Recovered() == 0 {
		return cs, fmt.Errorf("recovery of a mid-flight epoch: %+v", cs.stats)
	}
	for _, u := range killed {
		j, ok := eng.Job(u.ID)
		if !ok {
			return cs, fmt.Errorf("job %d of the killed epoch is unknown after recovery", u.ID)
		}
		if state := j.State(); state != controller.JobDone && state != controller.JobFailed {
			return cs, fmt.Errorf("recovered job %d stuck in state %v", j.ID, state)
		}
		if f := j.Failure(); f != nil {
			unverified := f.Phase == controller.PhaseRolledBack && !f.RollbackVerified
			if unverified || f.Phase == controller.PhaseStuck || f.Phase == controller.PhaseRollbackFailed {
				return cs, fmt.Errorf("recovered job %d ended %q (verified=%v): %s", j.ID, f.Phase, f.RollbackVerified, f.TriggeringFault)
			}
		}
	}
	return cs, nil
}
