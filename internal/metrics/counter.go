package metrics

import "sync/atomic"

// Counter is a process-wide monotonic event counter, safe for
// concurrent use. The fault-and-recovery layer increments the package
// counters below from the controller engine and the fault injectors;
// tests and experiments read them to assert how often each recovery
// path fired.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Fault-and-recovery counters, incremented across the repository:
var (
	// FaultsInjected counts messages the fault model dropped,
	// duplicated or reordered (netem.Faults decisions that fired,
	// plus switchsim crashes).
	FaultsInjected Counter

	// InstallsRolledBack counts per-switch installs undone by an
	// executed rollback plan.
	InstallsRolledBack Counter

	// Aborts counts jobs that aborted mid-plan (whether or not the
	// subsequent rollback verified safe).
	Aborts Counter

	// Stalls counts jobs that ended stuck: aborted with a rollback
	// that did not verify safe (or failed mid-rollback), leaving
	// installed nodes in place.
	Stalls Counter

	// JobsRecovered counts non-terminal jobs a restarted controller
	// reconstructed from its journal (queued re-admissions plus
	// mid-flight reconciliations).
	JobsRecovered Counter

	// JobsAdopted counts recovered mid-flight jobs whose journal and
	// switch state agreed, letting the engine resume dispatch from the
	// recovered frontier instead of rolling back.
	JobsAdopted Counter

	// RecoveryRollbacks counts recovered mid-flight jobs that fell into
	// the verified rollback path (journal/switch discrepancy, or
	// unreachable switches).
	RecoveryRollbacks Counter
)
