package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/topo"
)

// visitIdealsRef is VisitIdeals as it was before it kept eligibility
// incrementally: every DFS step rescans all nodes, each with its
// dependencies, for the smallest eligible one. It is the reference the
// enumerator must match flip for flip.
func (p *Plan) visitIdealsRef(flip func(node int, on bool), visit func() bool) bool {
	n := len(p.Nodes)
	words := (n + 63) / 64
	scratch := make([]uint64, 2*words)
	included, excluded := scratch[:words], scratch[words:]
	has := func(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
	set := func(s []uint64, i int) { s[i>>6] |= 1 << (uint(i) & 63) }
	unset := func(s []uint64, i int) { s[i>>6] &^= 1 << (uint(i) & 63) }
	eligible := func(i int) bool {
		if has(included, i) || has(excluded, i) {
			return false
		}
		for _, d := range p.Nodes[i].Deps {
			if !has(included, d) {
				return false
			}
		}
		return true
	}
	var rec func() bool
	rec = func() bool {
		m := -1
		for i := 0; i < n; i++ {
			if eligible(i) {
				m = i
				break
			}
		}
		if m == -1 {
			return visit()
		}
		set(included, m)
		flip(m, true)
		if !rec() {
			return false
		}
		flip(m, false)
		unset(included, m)
		set(excluded, m)
		if !rec() {
			return false
		}
		unset(excluded, m)
		return true
	}
	return rec()
}

// idealTrace records an enumeration, one entry per callback; visit
// aborts at the stop-th ideal (never when stop is 0).
func idealTrace(enum func(func(int, bool), func() bool) bool, stop int) ([]string, bool) {
	var out []string
	visits := 0
	complete := enum(
		func(node int, on bool) { out = append(out, fmt.Sprint(node, on)) },
		func() bool {
			visits++
			out = append(out, "visit")
			return visits != stop
		})
	return out, complete
}

// TestVisitIdealsMatchesReference pins the enumeration order: on 200
// random draft DAGs of at most 14 nodes, on rollback plans of random
// installed ideals of them and on layered plans over the same switches,
// every flip and every visit comes in the reference's order — also when
// visit aborts early.
func TestVisitIdealsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	check := func(what string, p *Plan) {
		t.Helper()
		stop := 0
		if rng.Intn(3) == 0 {
			stop = 1 + rng.Intn(8)
		}
		got, gotDone := idealTrace(p.VisitIdeals, stop)
		want, wantDone := idealTrace(p.visitIdealsRef, stop)
		if gotDone != wantDone || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s plan %+v, stop %d: complete %t, want %t\n got %v\nwant %v", what, p.Nodes, stop, gotDone, wantDone, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(11), false)
		in := MustInstance(ti.Old, ti.New, 0)
		d := NewPlanDraft(in)
		n := len(d.nodes)
		if n == 0 {
			continue
		}
		for k := rng.Intn(2*n + 1); k > 0; k-- {
			_ = d.AddEdge(rng.Intn(n), rng.Intn(n)) // cycles, self-loops and duplicates are refused
		}
		p := d.Plan(AlgoSynth, 0)
		check("draft", p)

		// The rollback of a random installed ideal: a prefix of a random
		// linear extension.
		installed := make([]bool, n)
		run := NewPlanRun(p)
		ready := run.Reset(nil)
		for k := rng.Intn(n + 1); k > 0 && len(ready) > 0; k-- {
			j := rng.Intn(len(ready))
			i := ready[j]
			ready[j] = ready[len(ready)-1]
			ready = run.Complete(i, ready[:len(ready)-1])
			installed[i] = true
		}
		rev, _, err := p.Reverse(installed)
		if err != nil {
			t.Fatal(err)
		}
		check("rollback", rev)

		// The same switches in random rounds.
		sw := make([]topo.NodeID, n)
		for i, nd := range p.Nodes {
			sw[i] = nd.Switch
		}
		rng.Shuffle(n, func(i, j int) { sw[i], sw[j] = sw[j], sw[i] })
		var rounds [][]topo.NodeID
		for len(sw) > 0 {
			k := 1 + rng.Intn(len(sw))
			rounds, sw = append(rounds, sw[:k]), sw[k:]
		}
		check("layered", Layered(AlgoPeacock, 0, rounds))
	}
}

// TestGrayVisitEnumeratesAllSubsets is the enumeration property behind
// the Gray-code rewrite: for every n ≤ 12, grayVisit must (a) visit
// exactly the 2^n distinct masks — the same state set the old
// ascending-size enumerator covered — and (b) change exactly the
// single reported bit between consecutive masks, the invariant the
// incremental walker relies on.
func TestGrayVisitEnumeratesAllSubsets(t *testing.T) {
	for n := 0; n <= 12; n++ {
		seen := make(map[uint32]bool)
		prev := uint32(0)
		first := true
		grayVisit(n, func(mask uint32, flipped int) {
			if first {
				if mask != 0 || flipped != -1 {
					t.Fatalf("n=%d: first visit = (%b, %d), want (0, -1)", n, mask, flipped)
				}
				first = false
			} else {
				diff := prev ^ mask
				if diff != 1<<uint(flipped) {
					t.Fatalf("n=%d: consecutive masks %b -> %b differ in %b, reported flip bit %d", n, prev, mask, diff, flipped)
				}
			}
			if seen[mask] {
				t.Fatalf("n=%d: mask %b visited twice", n, mask)
			}
			seen[mask] = true
			prev = mask
		})
		if len(seen) != 1<<uint(n) {
			t.Fatalf("n=%d: visited %d masks, want %d", n, len(seen), 1<<uint(n))
		}
	}
}
