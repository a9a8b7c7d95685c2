package controller

// JobEvent is one event of a job's progress.
type JobEvent struct{ node int }

type job struct {
	rollback *rollbackSpec
	log      []JobEvent
	watchers []chan JobEvent
}

// switchMessages is one switch's message tally beside the trace.
type switchMessages struct{ sw, ctrl int }
