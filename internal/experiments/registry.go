package experiments

import (
	"runtime"

	"tsu/internal/metrics"
)

// Experiment is one entry of the experiment index.
type Experiment struct {
	ID          string
	Description string
	// Run regenerates the table from a seed; reps is the repetition
	// count of the timing experiments and ignored by the rest.
	Run func(seed int64, reps int) (*metrics.Table, error)
}

// Registry lists every experiment cmd/experiments can run, in index
// order (E8, the codec microbenchmark, lives in the bench harness only:
// go test -bench=E8). The analytic experiments run at their default
// scale — E15 at the full 100,820-switch tier, about ten seconds.
var Registry = []Experiment{
	{"E1", "Figure 1 demo: WayUp vs one-shot under asynchrony, live probes", func(seed int64, _ int) (*metrics.Table, error) { return E1Fig1(seed) }},
	{"E2", "update time of flow tables (paper's stated evaluation)", func(seed int64, reps int) (*metrics.Table, error) { return E2UpdateTime(reps, seed) }},
	{"E3", "transient-security violations on random waypoint instances", func(seed int64, _ int) (*metrics.Table, error) { return E3Violations(50, seed) }},
	{"E4", "rounds vs n: relaxed (Peacock) vs strong (greedy) loop freedom", func(seed int64, _ int) (*metrics.Table, error) { return E4Rounds(seed) }},
	{"E5", "scheduler computation time vs instance size", func(seed int64, _ int) (*metrics.Table, error) { return E5Compute(seed) }},
	{"E6", "live update time vs number of switches", func(seed int64, _ int) (*metrics.Table, error) { return E6UpdateTimeVsN(seed) }},
	{"E7", "violation dose-response vs control-channel jitter", func(seed int64, _ int) (*metrics.Table, error) { return E7JitterDose(seed) }},
	{"E9", "multi-policy updates: joint vs sequential rounds", func(seed int64, _ int) (*metrics.Table, error) { return E9MultiPolicy(seed) }},
	{"E10", "10k-switch fat-tree in virtual time: per-event checks, peacock vs one-shot",
		func(seed int64, _ int) (*metrics.Table, error) {
			res, err := E10VirtualFatTree(0, 0, seed)
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}},
	{"E12", "optimality gaps: heuristics vs counterexample-guided synthesis", func(seed int64, _ int) (*metrics.Table, error) { return E12SynthGap(seed) }},
	{"E13", "seeded confirmation loss: abort and verified rollback (analytic model)",
		func(seed int64, _ int) (*metrics.Table, error) {
			res, err := E13FaultedRollback(0, 0, seed, runtime.GOMAXPROCS(0))
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}},
	{"E14", "crash-restart recovery: adopt vs verified rollback at every dispatch boundary (analytic model)",
		func(seed int64, _ int) (*metrics.Table, error) {
			res, err := E14CrashRecovery(0, 0, seed, runtime.GOMAXPROCS(0))
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}},
	{"E15", "100k-switch soak: decentralized dispatch under combined loss + crash stress (analytic model)",
		func(seed int64, _ int) (*metrics.Table, error) {
			res, err := E15Soak(0, 0, seed, runtime.GOMAXPROCS(0))
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}},
}
