package controller

import "fixture/internal/journal"

type Engine struct{}

type rollbackSpec struct{ undo []bool }

// reconcile is the one asker and the one undo site.
func (e *Engine) reconcile(j *job) []bool {
	e.querySwitchState(j)
	return downClosure(j.rollback.undo)
}

func (e *Engine) querySwitchState(*job) {}

func downClosure(set []bool) []bool { return set }

// admit makes the one write of Recoverable allowed.
func admit(a *journal.Admit) { a.Recoverable = true }
