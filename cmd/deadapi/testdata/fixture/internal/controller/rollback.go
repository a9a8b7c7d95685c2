package controller

import "fixture/internal/journal"

// abort asks the switches itself, computes its own undo set, tests the
// spec for nil and reads Recoverable.
func (e *Engine) abort(j *job, a *journal.Admit) []bool {
	if j.rollback == nil || !a.Recoverable {
		return nil
	}
	e.querySwitchState(j)
	return downClosure(j.rollback.undo)
}

// pushErr waits out a failed push.
var pushErr error

// kind journals a record per node.
func kind() journal.Kind { return journal.KindDispatched }
