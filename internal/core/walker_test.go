package core

import (
	"math/rand"
	"testing"

	"tsu/internal/topo"
)

// walkerTestInstances is a deterministic mix of instance shapes: the
// Fig.1 scenario, path reversals (transient loops), and random
// two-path instances with and without waypoints.
func walkerTestInstances(t *testing.T) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ins := []*Instance{
		MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint),
		MustInstance(topo.Reversal(8).Old, topo.Reversal(8).New, 0),
		MustInstance(topo.Reversal(70).Old, topo.Reversal(70).New, 0), // multi-word states
	}
	for i := 0; i < 12; i++ {
		ti := topo.RandomTwoPath(rng, 6+rng.Intn(20), i%2 == 0)
		ins = append(ins, MustInstance(ti.Old, ti.New, ti.Waypoint))
	}
	return ins
}

// walkerPath materializes the walker's current walk in Instance.Walk's
// convention: a looped walk ends with the first repeated switch
// included twice.
func walkerPath(w *Walker) topo.Path {
	out := make(topo.Path, 0, len(w.path)+1)
	for _, i := range w.path {
		out = append(out, w.in.nodeOf[i])
	}
	if w.outcome == Looped {
		out = append(out, w.in.nodeOf[w.loopAt])
	}
	return out
}

// TestWalkerMatchesWalk drives a Walker through long random flip
// sequences and checks, after every flip, that its outcome, path, and
// property verdicts are identical to a fresh Instance.Walk/CheckState
// on the same rule state — the incremental re-walk must be
// indistinguishable from a full walk.
func TestWalkerMatchesWalk(t *testing.T) {
	props := NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement | StrongLoopFreedom
	rng := rand.New(rand.NewSource(7))
	for _, in := range walkerTestInstances(t) {
		w := in.NewWalker()
		st := in.NewState()
		n := in.NumNodes()
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			w.Flip(i)
			if st.Has(i) {
				st.Clear(i)
			} else {
				st.Set(i)
			}
			wantPath, wantOutcome := in.Walk(st)
			if got := w.outcome; got != wantOutcome {
				t.Fatalf("%v after flips: walker outcome %v, walk says %v (state %v)", in, got, wantOutcome, in.StateNodes(st))
			}
			if got := walkerPath(w); !got.Equal(wantPath) {
				t.Fatalf("%v: walker path %v, walk says %v", in, got, wantPath)
			}
			if got, want := w.Check(props), in.CheckState(st, props); got != want {
				t.Fatalf("%v: walker check %s, CheckState says %s (state %v)", in, got, want, in.StateNodes(st))
			}
		}
	}
}

// TestWalkerReset checks Reset rebases the walker on an arbitrary done
// state, and Bind rebinds the same walker across instances of
// different sizes.
func TestWalkerReset(t *testing.T) {
	props := NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement
	rng := rand.New(rand.NewSource(11))
	w := NewWalker()
	for _, in := range walkerTestInstances(t) {
		w.Bind(in)
		pending := in.Pending()
		for trial := 0; trial < 20; trial++ {
			done := in.NewState()
			for _, v := range pending {
				if rng.Intn(2) == 0 {
					in.Mark(done, v)
				}
			}
			w.Reset(done)
			wantPath, wantOutcome := in.Walk(done)
			if w.outcome != wantOutcome || !walkerPath(w).Equal(wantPath) {
				t.Fatalf("%v: reset walker (%v, %v) != walk (%v, %v)", in, w.outcome, walkerPath(w), wantOutcome, wantPath)
			}
			if got, want := w.Check(props), in.CheckState(done, props); got != want {
				t.Fatalf("%v: reset check %s != %s", in, got, want)
			}
		}
	}
}

// TestRoundCheckerReuse runs the same verification twice through one
// RoundChecker, interleaved across instances, and requires identical
// verdicts to fresh CheckRound calls — the scratch reuse must not leak
// state between rounds or instances.
func TestRoundCheckerReuse(t *testing.T) {
	props := NoBlackhole | RelaxedLoopFreedom | WaypointEnforcement
	rc := NewRoundChecker()
	for _, in := range walkerTestInstances(t) {
		for _, algo := range []string{AlgoOneShot, AlgoPeacock} {
			s, err := PlanByName(in, algo, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			done := in.NewState()
			for _, round := range s.Layers() {
				wantCex, wantExact := in.CheckRound(done, round, props, 0)
				gotCex, gotExact := rc.Check(in, done, round, props, 0)
				if gotExact != wantExact {
					t.Fatalf("%v %s: reused checker exact=%t, fresh says %t", in, algo, gotExact, wantExact)
				}
				if (gotCex == nil) != (wantCex == nil) {
					t.Fatalf("%v %s: reused checker cex=%v, fresh says %v", in, algo, gotCex, wantCex)
				}
				if gotCex != nil {
					if gotCex.Violated != wantCex.Violated || !gotCex.Walk.Equal(wantCex.Walk) {
						t.Fatalf("%v %s: reused checker %v, fresh %v", in, algo, gotCex, wantCex)
					}
				}
				in.Mark(done, round...)
			}
		}
	}
}
