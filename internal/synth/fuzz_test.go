package synth

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"tsu/internal/core"
	"tsu/internal/topo"
)

// FuzzSynthRefine throws random two-path instances at the CEGIS loop
// and checks the refinement invariants that hold regardless of whether
// synthesis converges: whatever plan comes out (final or best-so-far
// on budget overrun) must Validate against the instance and round-trip
// the binary plan codec bit-for-bit.
func FuzzSynthRefine(f *testing.F) {
	f.Add(int64(1), uint8(4), true)
	f.Add(int64(2), uint8(9), false)
	f.Add(int64(42), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, waypoint bool) {
		size := 4 + int(n%12)
		rng := rand.New(rand.NewSource(seed))
		ti := topo.RandomTwoPath(rng, size, waypoint)
		in, err := core.NewInstance(ti.Old, ti.New, ti.Waypoint)
		if err != nil {
			t.Skip()
		}
		plan, _, err := Synthesize(in, 0, Options{Budget: 64})
		if err != nil {
			var be *BudgetError
			switch {
			case errors.As(err, &be):
				plan = be.Best
			case errors.Is(err, ErrInfeasible) || errors.Is(err, ErrDeadEnd):
				return
			default:
				t.Fatalf("Synthesize: %v", err)
			}
		}
		if err := plan.Validate(in); err != nil {
			t.Fatalf("synthesized plan invalid: %v", err)
		}
		enc := core.EncodePlan(plan)
		dec, err := core.DecodePlan(enc)
		if err != nil {
			t.Fatalf("DecodePlan: %v", err)
		}
		if !bytes.Equal(enc, core.EncodePlan(dec)) {
			t.Fatal("plan codec round-trip not stable")
		}
	})
}
