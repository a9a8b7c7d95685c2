package controller

// JobEvent is one event of a job's progress.
type JobEvent struct{ node int }

type job struct {
	rollback *rollbackSpec
	log      []JobEvent
	watchers []chan JobEvent
}
