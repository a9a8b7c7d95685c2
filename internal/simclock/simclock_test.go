package simclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSimOrderingByTimeThenSeq(t *testing.T) {
	s := NewSim(time.Time{})
	var log []string
	s.Schedule(3*time.Millisecond, func() { log = append(log, "c@3") })
	s.Schedule(time.Millisecond, func() { log = append(log, "a@1") })
	s.Schedule(time.Millisecond, func() { log = append(log, "b@1") }) // same instant: scheduling order
	s.Schedule(2*time.Millisecond, func() { log = append(log, "d@2") })
	if n := s.Run(); n != 4 {
		t.Fatalf("fired %d events, want 4", n)
	}
	want := "[a@1 b@1 d@2 c@3]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("event order %s, want %s", got, want)
	}
	if got := s.Now().Sub(Epoch); got != 3*time.Millisecond {
		t.Fatalf("clock at +%v, want +3ms", got)
	}
}

func TestSimAdvanceToBoundary(t *testing.T) {
	s := NewSim(time.Time{})
	fired := 0
	s.Schedule(time.Millisecond, func() { fired++ })
	s.Schedule(5*time.Millisecond, func() { fired++ })
	if n := s.Advance(2 * time.Millisecond); n != 1 || fired != 1 {
		t.Fatalf("advance(2ms) fired %d (%d), want 1", n, fired)
	}
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond {
		t.Fatalf("clock at +%v after Advance(2ms)", got)
	}
	// Time is monotonic: advancing into the past is a no-op.
	if n := s.AdvanceTo(Epoch); n != 0 {
		t.Fatalf("AdvanceTo(past) fired %d events", n)
	}
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond {
		t.Fatalf("clock moved backward to +%v", got)
	}
	if n := s.Run(); n != 1 || fired != 2 {
		t.Fatalf("Run fired %d (%d), want 1", n, fired)
	}
}

func TestSimCallbacksCanReschedule(t *testing.T) {
	s := NewSim(time.Time{})
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now().Sub(Epoch))
		if len(ticks) < 5 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(time.Millisecond, tick)
	s.Run()
	if len(ticks) != 5 || ticks[4] != 5*time.Millisecond {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestSimSleepWakesOnAdvance(t *testing.T) {
	s := NewSim(time.Time{})
	var wg sync.WaitGroup
	var woke time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Sleep(10 * time.Millisecond)
		woke = s.Now()
	}()
	// Wait until the sleeper has registered its event.
	for s.Pending() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	s.Advance(10 * time.Millisecond)
	wg.Wait()
	if got := woke.Sub(Epoch); got != 10*time.Millisecond {
		t.Fatalf("sleeper woke at +%v, want +10ms", got)
	}
}

func TestSimAfterDeliversVirtualTime(t *testing.T) {
	s := NewSim(time.Time{})
	ch := s.After(7 * time.Millisecond)
	s.Advance(7 * time.Millisecond)
	select {
	case at := <-ch:
		if got := at.Sub(Epoch); got != 7*time.Millisecond {
			t.Fatalf("After delivered +%v, want +7ms", got)
		}
	default:
		t.Fatal("After channel empty after Advance past deadline")
	}
}

func TestSimAutoAdvanceDrivesSleepers(t *testing.T) {
	s := NewSim(time.Time{})
	stop := s.AutoAdvance(100 * time.Microsecond)
	defer stop()
	start := time.Now()
	s.Sleep(30 * time.Second) // virtual; must not take 30s of wall time
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("virtual 30s sleep took %v wall-clock", elapsed)
	}
	if got := s.Now().Sub(Epoch); got != 30*time.Second {
		t.Fatalf("clock at +%v, want +30s", got)
	}
}

func TestSimFiredCountsEvents(t *testing.T) {
	s := NewSim(time.Time{})
	for i := 0; i < 17; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", s.Fired())
	}
}

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) != Real {
		t.Fatal("Or(nil) != Real")
	}
	s := NewSim(time.Time{})
	if Or(s) != Clock(s) {
		t.Fatal("Or(s) != s")
	}
}

// await fails the test unless ch is closed within a generous wall-clock
// bound.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestRealAfterFuncRunsOffTheCaller(t *testing.T) {
	done := make(chan struct{})
	Real.AfterFunc(time.Millisecond, func() { close(done) })
	await(t, done, "Real.AfterFunc")
}

// TestSimAfterFuncIsAnOrdinaryEvent: an AfterFunc timer sits in the
// same (time, seq) queue as Schedule'd callbacks and is counted by
// Fired. The callbacks around it read Fired() as they run, which pins
// the timer's slot between them whatever its goroutine does.
func TestSimAfterFuncIsAnOrdinaryEvent(t *testing.T) {
	s := NewSim(time.Time{})
	var firedAt []uint64
	note := func() { firedAt = append(firedAt, s.Fired()) }
	ran := make(chan struct{})
	var ranAt time.Duration

	s.Schedule(2*time.Millisecond, note) // fires 4th, after the timer
	s.Schedule(time.Millisecond, note)   // 1st
	s.AfterFunc(time.Millisecond, func() {})
	s.Schedule(time.Millisecond, note) // 3rd: same instant, scheduled after the timer
	s.AfterFunc(2*time.Millisecond, func() { ranAt = s.Now().Sub(Epoch); close(ran) })
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	if n := s.Step(); n != 3 {
		t.Fatalf("first instant fired %d events, want 3", n)
	}
	if n := s.Run(); n != 2 || s.Fired() != 5 {
		t.Fatalf("Run fired %d (total %d), want 2 (5)", n, s.Fired())
	}
	if got, want := fmt.Sprint(firedAt), "[1 3 4]"; got != want {
		t.Fatalf("callbacks saw Fired() = %s, want %s", got, want)
	}
	await(t, ran, "the 2ms timer's function")
	if ranAt != 2*time.Millisecond {
		t.Fatalf("timer function saw +%v, want +2ms", ranAt)
	}
}

// TestSimAfterFuncMayBlockOnTheClock: the function runs on a goroutine
// of its own, so — unlike a Schedule callback — it may Sleep on the
// clock that fired it without deadlocking Step or AutoAdvance.
func TestSimAfterFuncMayBlockOnTheClock(t *testing.T) {
	s := NewSim(time.Time{})
	done := make(chan struct{})
	s.AfterFunc(time.Millisecond, func() {
		s.Sleep(time.Millisecond)
		close(done)
	})
	if n := s.Step(); n != 1 {
		t.Fatalf("Step fired %d events, want 1", n)
	}
	for s.Pending() == 0 { // the function's Sleep registering
		time.Sleep(50 * time.Microsecond)
	}
	s.Step()
	await(t, done, "a sleeping timer function under Step")
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond {
		t.Fatalf("clock at +%v, want +2ms", got)
	}

	stop := s.AutoAdvance(100 * time.Microsecond)
	defer stop()
	done = make(chan struct{})
	var tick func()
	ticks := 0
	tick = func() { // a self re-arming duty
		s.Sleep(time.Second)
		if ticks++; ticks == 5 {
			close(done)
			return
		}
		s.AfterFunc(time.Second, tick)
	}
	s.AfterFunc(time.Second, tick)
	await(t, done, "a re-arming, sleeping timer chain under AutoAdvance")
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond+10*time.Second {
		t.Fatalf("clock at +%v, want +10.002s", got)
	}
}
