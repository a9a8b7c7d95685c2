package synth

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from the current tree")

// planInputs is the instance set plans.golden pins: seeded random
// two-path updates with and without a waypoint, Figure 1, two
// adversarial families and the 34-hop ladder of the controller's
// planning allocation test.
func planInputs(t testing.TB) []struct {
	name string
	in   *core.Instance
} {
	var out []struct {
		name string
		in   *core.Instance
	}
	add := func(name string, ti topo.TwoPathInstance) {
		out = append(out, struct {
			name string
			in   *core.Instance
		}{name, fromTwoPath(t, ti)})
	}
	for seed := int64(1); seed <= 100; seed++ {
		for _, wp := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			add(fmt.Sprintf("random%d-wp=%t", seed, wp), topo.RandomTwoPath(rng, 4+int(seed%9), wp))
		}
	}
	add("fig1", topo.TwoPathInstance{Old: topo.Fig1OldPath, New: topo.Fig1NewPath, Waypoint: topo.Fig1Waypoint})
	add("reversal64", topo.Reversal(64))
	add("comb12x8", topo.Comb(12, 8))
	ladder := topo.TwoPathInstance{New: topo.Path{1}}
	for c := topo.NodeID(1); c <= 32; c++ {
		ladder.Old = append(ladder.Old, c)
		ladder.New = append(ladder.New, 32+c)
	}
	ladder.New = append(ladder.New, 32)
	add("ladder34", ladder)
	return out
}

// maxSynthPending bounds the inputs TestPlansGolden synthesizes on:
// past it one synthesis takes seconds (reversal64 about 14 s).
const maxSynthPending = 20

// TestPlansGolden pins every registered scheduler's plan, layered and
// sparse, on planInputs: the error text, or the plan's wire encoding,
// layers, guarantees and flags. Synthesis is pinned on the inputs of
// at most maxSynthPending pending switches. -update rewrites the file.
func TestPlansGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range planInputs(t) {
		for _, name := range core.Names() {
			if name == core.AlgoSynth && c.in.NumPending() > maxSynthPending {
				continue
			}
			for _, sparse := range []bool{false, true} {
				fmt.Fprintf(&b, "%s %s sparse=%t: ", c.name, name, sparse)
				p, err := core.PlanByName(c.in, name, 0, sparse)
				if err != nil {
					fmt.Fprintf(&b, "error %v\n", err)
					continue
				}
				fmt.Fprintf(&b, "%s layers=%v guarantees=%s sparse=%t compromised=%t\n",
					hex.EncodeToString(core.EncodePlan(p)), p.Layers(), p.Guarantees, p.Sparse, p.LoopFreedomCompromised)
			}
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("plans differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
