package metrics

import "sync/atomic"

// Counter is a process-wide monotonic event counter, safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FaultsInjected counts messages the fault model dropped, duplicated or
// reordered (netem.Faults decisions that fired, plus switchsim crashes):
// the switches' evidence that a fault fired.
var FaultsInjected Counter
